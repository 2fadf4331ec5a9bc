type term = T_app of Symbol.t * term list | T_const of Value.t

let rec term_to_sexp = function
  | T_const (Value.VInt i) -> Sexpr.Int i
  | T_const (Value.VRat r) -> Sexpr.Rational r
  | T_const (Value.VStr s) -> Sexpr.String (Symbol.name s)
  | T_const v -> Sexpr.Atom (Value.to_string v)
  | T_app (f, []) -> Sexpr.List [ Sexpr.Atom (Symbol.name f) ]
  | T_app (f, args) -> Sexpr.List (Sexpr.Atom (Symbol.name f) :: List.map term_to_sexp args)

let pp_term fmt t = Sexpr.pp fmt (term_to_sexp t)

type result = { term : term; cost : int }

let c_nodes_evaluated = Telemetry.counter "extract.nodes_evaluated"

(* The best-known construction of every e-class. E-nodes are the rows of
   the sort-valued tables, numbered in [iter_tables]/[Table.iter] order;
   per id, [node] is the chosen e-node (-1: none yet) and [cost] its cost. *)
type table = {
  funcs : Schema.func array;  (* the sort-valued functions, in declaration order *)
  node_func : int array;  (* e-node -> index into [funcs] *)
  node_key : Value.t array array;  (* e-node -> its key, as stored *)
  node : int array;  (* id -> chosen e-node, or -1 *)
  cost : int array;  (* id -> cost of the chosen e-node *)
}

(* The fixpoint "cost(class) = min over its e-nodes of func cost plus the
   children's costs", computed exactly as repeated in-order passes over
   every e-node would compute it — same costs, same chosen e-node, ties
   included — while evaluating only dirty e-nodes. An e-node is dirty until
   its first evaluation and again whenever a child class's cost drops; a
   clean e-node's evaluation is a provable no-op (its class already costs
   at most its unchanged total), so skipping it changes nothing. A class
   that improves dirties its parents: those after the current position are
   picked up later in the same pass, those at or before it force another
   pass, which starts at the earliest of them. *)
let compute db =
  let sort_tables = ref [] and n = ref 0 in
  Database.iter_tables db (fun table ->
      if Ty.is_sort (Table.func table).Schema.ret_ty then begin
        sort_tables := table :: !sort_tables;
        n := !n + Table.length table
      end);
  let tables = Array.of_list (List.rev !sort_tables) and n = !n in
  let funcs = Array.map Table.func tables in
  let node_func = Array.make n 0 and node_key = Array.make n [||] in
  let node_out = Array.make n (-1) in
  let pos = ref 0 in
  Array.iteri
    (fun f table ->
      Table.iter
        (fun key row ->
          let i = !pos in
          node_func.(i) <- f;
          node_key.(i) <- key;
          (match row.Table.value with Value.VId out -> node_out.(i) <- out | _ -> ());
          pos := i + 1)
        table)
    tables;
  (* CSR parent index: the e-nodes using id c as a child are
     parents.(pstart.(c)) .. parents.(pstart.(c + 1) - 1). *)
  let n_ids = Database.n_ids db in
  let pstart = Array.make (n_ids + 1) 0 in
  for i = 0 to n - 1 do
    if node_out.(i) >= 0 then
      Array.iter
        (function Value.VId c -> pstart.(c + 1) <- pstart.(c + 1) + 1 | _ -> ())
        node_key.(i)
  done;
  for c = 1 to n_ids do
    pstart.(c) <- pstart.(c) + pstart.(c - 1)
  done;
  let parents = Array.make pstart.(n_ids) 0 and fill = Array.sub pstart 0 n_ids in
  for i = 0 to n - 1 do
    if node_out.(i) >= 0 then
      Array.iter
        (function
          | Value.VId c ->
            parents.(fill.(c)) <- i;
            fill.(c) <- fill.(c) + 1
          | _ -> ())
        node_key.(i)
  done;
  let node = Array.make n_ids (-1) and cost = Array.make n_ids 0 in
  (* Rows whose output is not an id are never candidates: never dirty. *)
  let dirty = Array.map (fun out -> out >= 0) node_out in
  let evaluated = ref 0 in
  (* Evaluate e-node [i]; true when it became its class's choice. *)
  let improves i =
    incr evaluated;
    let key = node_key.(i) in
    let total = ref funcs.(node_func.(i)).Schema.cost and ok = ref true and j = ref 0 in
    while !ok && !j < Array.length key do
      (match key.(!j) with
       | Value.VId c -> if node.(c) < 0 then ok := false else total := !total + cost.(c)
       | Value.VUnit | Value.VBool _ | Value.VInt _ | Value.VRat _ | Value.VStr _
       | Value.VSet _ | Value.VVec _ -> ());
      incr j
    done;
    let out = node_out.(i) in
    !ok
    && (node.(out) < 0 || cost.(out) > !total)
    && begin
      node.(out) <- i;
      cost.(out) <- !total;
      true
    end
  in
  let next = ref 0 in
  while !next < n do
    let from = !next in
    next := n;
    for i = from to n - 1 do
      if dirty.(i) then begin
        dirty.(i) <- false;
        if improves i then begin
          let out = node_out.(i) in
          for k = pstart.(out) to pstart.(out + 1) - 1 do
            let p = parents.(k) in
            dirty.(p) <- true;
            if p <= i && p < !next then next := p
          done
        end
      end
    done
  done;
  Telemetry.bump c_nodes_evaluated !evaluated;
  { funcs; node_func; node_key; node; cost }

let best t id =
  let i = t.node.(id) in
  if i < 0 then None else Some (t.cost.(id), t.funcs.(t.node_func.(i)), t.node_key.(i))

(* The term of a value: its class's chosen e-node, children built the same
   way; [None] when some class on the way has no chosen e-node. *)
let rec build t v =
  match v with
  | Value.VId id ->
    let i = t.node.(id) in
    if i < 0 then None
    else
      Option.map
        (fun args -> T_app (t.funcs.(t.node_func.(i)).Schema.name, args))
        (build_args t t.node_key.(i))
  | other -> Some (T_const other)

and build_args t args =
  Array.fold_right
    (fun arg acc ->
      match acc with
      | None -> None
      | Some rest -> ( match build t arg with Some a -> Some (a :: rest) | None -> None))
    args (Some [])

let extract t db value =
  match Database.canon db value with
  | Value.VId id as v -> Option.map (fun term -> { term; cost = t.cost.(id) }) (build t v)
  | other -> Some { term = T_const other; cost = 0 }

let candidates t db value ~max:max_candidates =
  match Database.canon db value with
  | Value.VId id ->
    (* every e-node of the class whose children all have a term, with its
       cost, in reverse iteration order (the stable sort keeps it for ties) *)
    let acc = ref [] in
    Database.iter_tables db (fun table ->
        let func = Table.func table in
        if Ty.is_sort func.Schema.ret_ty then
          Table.iter
            (fun key row ->
              match Database.canon db row.Table.value with
              | Value.VId out when out = id -> (
                let key = Array.map (Database.canon db) key in
                match build_args t key with
                | Some args ->
                  let cost =
                    Array.fold_left
                      (fun acc arg ->
                        match arg with
                        | Value.VId cid when t.node.(cid) >= 0 -> acc + t.cost.(cid)
                        | _ -> acc)
                      func.Schema.cost key
                  in
                  acc := (cost, T_app (func.Schema.name, args)) :: !acc
                | None -> ())
              | _ -> ())
            table);
    let sorted = List.stable_sort (fun (c1, _) (c2, _) -> compare c1 c2) !acc in
    (* cheapest first, duplicates dropped, stopping at [max] distinct terms *)
    let rec distinct n seen = function
      | [] -> []
      | _ when n = 0 -> []
      | (_, term) :: rest ->
        if List.mem term seen then distinct n seen rest
        else term :: distinct (n - 1) (term :: seen) rest
    in
    distinct max_candidates [] sorted
  | other -> [ T_const other ]
