(* The reference extraction fixpoint: plain Bellman-Ford over the
   sort-valued tables. Each pass visits every e-node in
   [iter_tables]/[Table.iter] order and replaces its class's entry when
   the e-node is strictly cheaper; passes repeat until one changes
   nothing. Deliberately naive — polymorphic hash tables, every e-node
   re-evaluated every pass, no parent index — so the differential
   properties in test_engine_props compare [Extract.compute]'s worklist
   against an independent evaluator that defines the expected costs,
   chosen constructors and chosen keys, ties included. *)

module E = Egglog

type best = { b_cost : int; b_func : E.Schema.func; b_key : E.Value.t array }

let compute_best db =
  let best : (int, best) Hashtbl.t = Hashtbl.create 256 in
  let cost_of_value v =
    match v with
    | E.Value.VId id -> (
      match Hashtbl.find_opt best id with Some b -> Some b.b_cost | None -> None)
    | E.Value.VUnit | E.Value.VBool _ | E.Value.VInt _ | E.Value.VRat _ | E.Value.VStr _
    | E.Value.VSet _ | E.Value.VVec _ ->
      Some 0
  in
  let progress = ref true in
  while !progress do
    progress := false;
    E.Database.iter_tables db (fun table ->
        let func = E.Table.func table in
        if E.Ty.is_sort func.E.Schema.ret_ty then
          E.Table.iter
            (fun key row ->
              match row.E.Table.value with
              | E.Value.VId out_id -> (
                let rec sum acc i =
                  if i >= Array.length key then Some acc
                  else begin
                    match cost_of_value key.(i) with
                    | None -> None
                    | Some c -> sum (acc + c) (i + 1)
                  end
                in
                match sum func.E.Schema.cost 0 with
                | None -> ()
                | Some total -> (
                  match Hashtbl.find_opt best out_id with
                  | Some b when b.b_cost <= total -> ()
                  | Some _ | None ->
                    Hashtbl.replace best out_id { b_cost = total; b_func = func; b_key = key };
                    progress := true))
              | E.Value.VUnit | E.Value.VBool _ | E.Value.VInt _ | E.Value.VRat _
              | E.Value.VStr _ | E.Value.VSet _ | E.Value.VVec _ ->
                ())
            table)
  done;
  best

(* Extraction and candidate enumeration read straight off the oracle's
   table, with the original term builder and the original "dedupe every
   term, then take [max]" enumeration. *)
let rec build best v =
  match v with
  | E.Value.VId id -> (
    match Hashtbl.find_opt best id with
    | None -> None
    | Some b -> (
      let args =
        Array.fold_right
          (fun arg acc ->
            match acc with
            | None -> None
            | Some rest -> ( match build best arg with Some t -> Some (t :: rest) | None -> None))
          b.b_key (Some [])
      in
      match args with
      | Some args -> Some (E.Extract.T_app (b.b_func.E.Schema.name, args))
      | None -> None))
  | other -> Some (E.Extract.T_const other)

let extract db value =
  match E.Database.canon db value with
  | E.Value.VId id -> (
    let best = compute_best db in
    match (Hashtbl.find_opt best id, build best (E.Value.VId id)) with
    | Some b, Some term -> Some { E.Extract.term; cost = b.b_cost }
    | _ -> None)
  | other -> Some { E.Extract.term = E.Extract.T_const other; cost = 0 }

let candidates db value ~max:max_candidates =
  match E.Database.canon db value with
  | E.Value.VId id ->
    let best = compute_best db in
    let acc = ref [] in
    E.Database.iter_tables db (fun table ->
        let func = E.Table.func table in
        if E.Ty.is_sort func.E.Schema.ret_ty then
          E.Table.iter
            (fun key row ->
              match E.Database.canon db row.E.Table.value with
              | E.Value.VId out when out = id -> (
                let args =
                  Array.fold_right
                    (fun arg rest ->
                      match rest with
                      | None -> None
                      | Some rest -> (
                        match build best (E.Database.canon db arg) with
                        | Some t -> Some (t :: rest)
                        | None -> None))
                    key (Some [])
                in
                match args with
                | Some args ->
                  let cost =
                    Array.fold_left
                      (fun acc arg ->
                        match E.Database.canon db arg with
                        | E.Value.VId cid -> (
                          match Hashtbl.find_opt best cid with
                          | Some b -> acc + b.b_cost
                          | None -> acc)
                        | _ -> acc)
                      func.E.Schema.cost key
                  in
                  acc := (cost, E.Extract.T_app (func.E.Schema.name, args)) :: !acc
                | None -> ())
              | _ -> ())
            table);
    let sorted = List.sort (fun (c1, _) (c2, _) -> compare c1 c2) !acc in
    let rec dedupe seen = function
      | [] -> []
      | (_, t) :: rest ->
        if List.mem t seen then dedupe seen rest else t :: dedupe (t :: seen) rest
    in
    let rec take n = function [] -> [] | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs in
    take max_candidates (dedupe [] sorted)
  | other -> [ E.Extract.T_const other ]

(* The first id (if any) whose entry differs between [Extract.compute]'s
   table and the oracle's: cost, constructor and key must all be equal,
   and a class has an entry in one exactly when it has one in the other. *)
let first_mismatch db =
  let table = E.Extract.compute db and oracle = compute_best db in
  let same id =
    match (E.Extract.best table id, Hashtbl.find_opt oracle id) with
    | None, None -> true
    | Some (cost, func, key), Some b ->
      cost = b.b_cost && func == b.b_func && key == b.b_key
    | Some _, None | None, Some _ -> false
  in
  let n = E.Database.n_ids db in
  let rec go id = if id >= n then None else if same id then go (id + 1) else Some id in
  go 0

let describe db id =
  let table = E.Extract.compute db and oracle = compute_best db in
  let show = function
    | None -> "none"
    | Some (cost, (func : E.Schema.func), key) ->
      Printf.sprintf "%d %s(%s)" cost (E.Symbol.name func.E.Schema.name)
        (String.concat " " (Array.to_list (Array.map E.Value.to_string key)))
  in
  Printf.sprintf "id %d: worklist %s, oracle %s" id
    (show (E.Extract.best table id))
    (show (Option.map (fun b -> (b.b_cost, b.b_func, b.b_key)) (Hashtbl.find_opt oracle id)))
