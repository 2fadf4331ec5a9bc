type reason = Asserted | Rule of string | Congruence of Symbol.t

type step = { from_id : int; to_id : int; why : reason }

(* Each id has at most one labelled parent edge; [record] re-roots one
   side's tree so the new edge can be added (Nelson-Oppen style).

   The undo trail works like [Union_find]'s: the first write to a slot
   below [base] saves the old edge once ([saved.(i) = epoch]); slots from
   [base] up to [top] belong to ids allocated since and are cleared. *)
type t = {
  mutable parent : (int * reason) array;
  mutable n_edges : int;
  mutable armed : bool;
  mutable base : int;
  mutable top : int;
  mutable epoch : int;
  mutable saved : int array;
  mutable trail : (int * (int * reason)) list;
  mutable trail_len : int;
  mutable base_edges : int;
}

let no_parent = (-1, Asserted)

let create () =
  {
    parent = Array.make 64 no_parent;
    n_edges = 0;
    armed = false;
    base = 0;
    top = 0;
    epoch = 0;
    saved = [||];
    trail = [];
    trail_len = 0;
    base_edges = 0;
  }

let ensure t id =
  if id >= Array.length t.parent then begin
    let cap = max (2 * Array.length t.parent) (id + 1) in
    let bigger = Array.make cap no_parent in
    Array.blit t.parent 0 bigger 0 (Array.length t.parent);
    t.parent <- bigger
  end

let write t i edge =
  if i < t.base then begin
    if t.saved.(i) <> t.epoch then begin
      t.saved.(i) <- t.epoch;
      t.trail <- (i, t.parent.(i)) :: t.trail;
      t.trail_len <- t.trail_len + 1
    end
  end
  else if t.armed && i >= t.top then t.top <- i + 1;
  t.parent.(i) <- edge

let parent_of t id = if id < Array.length t.parent then t.parent.(id) else no_parent

(* Reverse all parent pointers on the path from [id] to its root, making
   [id] the root of its proof tree. *)
let reroot t id =
  let rec collect acc id =
    match parent_of t id with
    | -1, _ -> acc
    | p, why -> collect ((id, p, why) :: acc) p
  in
  let path = collect [] id in
  (* path is root-first; flip each edge *)
  List.iter
    (fun (child, par, why) ->
      ensure t par;
      write t par (child, why))
    path;
  ensure t id;
  write t id no_parent

let record t a b why =
  if a <> b then begin
    ensure t a;
    ensure t b;
    reroot t a;
    (* Rerooting flips edges without changing their count, and [a] is a
       root afterwards, so this always adds exactly one edge. *)
    write t a (b, why);
    t.n_edges <- t.n_edges + 1
  end

let n_edges t = t.n_edges

let path_to_root t id =
  let rec go acc id =
    match parent_of t id with
    | -1, _ -> List.rev ((id, no_parent) :: acc)
    | p, why -> go ((id, (p, why)) :: acc) p
  in
  go [] id

let explain t a b =
  if a = b then Some []
  else begin
    let pa = path_to_root t a and pb = path_to_root t b in
    (* find the last common node of the two root-paths *)
    let nodes_b = List.map fst pb in
    let rec first_common = function
      | [] -> None
      | (n, _) :: rest -> if List.mem n nodes_b then Some n else first_common rest
    in
    match first_common pa with
    | None -> None
    | Some lca ->
      (* steps along a root-path until the lca, in order *)
      let rec until_lca = function
        | (n, (p, why)) :: rest when n <> lca -> { from_id = n; to_id = p; why } :: until_lca rest
        | _ -> []
      in
      let a_to_lca = until_lca pa in
      let b_to_lca = until_lca pb in
      let lca_to_b =
        List.rev_map (fun s -> { from_id = s.to_id; to_id = s.from_id; why = s.why }) b_to_lca
      in
      Some (a_to_lca @ lca_to_b)
  end

let edges_in_class t ~member ~find =
  let root = find member in
  let acc = ref [] in
  Array.iteri
    (fun i (p, why) ->
      if p >= 0 && find i = root then acc := { from_id = i; to_id = p; why } :: !acc)
    t.parent;
  List.rev !acc

let begin_trail t ~n_ids =
  if t.armed then invalid_arg "Proof_forest.begin_trail: a trail is already armed";
  if Array.length t.saved < n_ids then begin
    let saved = Array.make (max n_ids (Array.length t.parent)) 0 in
    Array.blit t.saved 0 saved 0 (Array.length t.saved);
    t.saved <- saved
  end;
  t.armed <- true;
  t.epoch <- t.epoch + 1;
  t.base <- n_ids;
  t.top <- n_ids;
  t.base_edges <- t.n_edges

let trail_entries t = t.trail_len

let end_trail t =
  t.armed <- false;
  t.base <- 0;
  t.trail <- [];
  t.trail_len <- 0

let undo_trail t =
  List.iter (fun (i, edge) -> t.parent.(i) <- edge) t.trail;
  let hi = min t.top (Array.length t.parent) in
  if hi > t.base then Array.fill t.parent t.base (hi - t.base) no_parent;
  t.n_edges <- t.base_edges;
  end_trail t

let copy t =
  {
    parent = Array.copy t.parent;
    n_edges = t.n_edges;
    armed = false;
    base = 0;
    top = 0;
    epoch = 0;
    saved = [||];
    trail = [];
    trail_len = 0;
    base_edges = 0;
  }

let pp_reason fmt = function
  | Asserted -> Format.pp_print_string fmt "asserted"
  | Rule name -> Format.fprintf fmt "rule %s" name
  | Congruence f -> Format.fprintf fmt "congruence of %s" (Symbol.name f)
