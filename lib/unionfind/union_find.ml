type t = {
  mutable parent : int array;
  mutable size : int array;
  mutable n : int;
  mutable dirty : int list;
  mutable n_classes : int;
  (* Undo trail (see [begin_trail]). Slots below [base] existed when the
     trail was armed; the first write to each saves its old contents once,
     recognised by [saved.(i) = epoch]. [base] is 0 while no trail is
     armed, so the unarmed write path costs one comparison. *)
  mutable armed : bool;
  mutable base : int;
  mutable epoch : int;
  mutable saved : int array;  (* per-slot epoch of the last save; [||] until first armed *)
  mutable trail : int array;  (* (slot, parent, size) triples *)
  mutable trail_len : int;
  mutable base_dirty : int list;
  mutable base_classes : int;
}

let create () =
  {
    parent = Array.make 16 0;
    size = Array.make 16 1;
    n = 0;
    dirty = [];
    n_classes = 0;
    armed = false;
    base = 0;
    epoch = 0;
    saved = [||];
    trail = [||];
    trail_len = 0;
    base_dirty = [];
    base_classes = 0;
  }

let grow uf =
  let cap = Array.length uf.parent in
  if uf.n >= cap then begin
    let cap' = 2 * cap in
    let parent = Array.make cap' 0 and size = Array.make cap' 1 in
    Array.blit uf.parent 0 parent 0 uf.n;
    Array.blit uf.size 0 size 0 uf.n;
    uf.parent <- parent;
    uf.size <- size
  end

(* Called before writing slot [i], which must be below [base]. *)
let save uf i =
  if uf.saved.(i) <> uf.epoch then begin
    uf.saved.(i) <- uf.epoch;
    if uf.trail_len + 3 > Array.length uf.trail then begin
      let bigger = Array.make (max 48 (2 * Array.length uf.trail)) 0 in
      Array.blit uf.trail 0 bigger 0 uf.trail_len;
      uf.trail <- bigger
    end;
    uf.trail.(uf.trail_len) <- i;
    uf.trail.(uf.trail_len + 1) <- uf.parent.(i);
    uf.trail.(uf.trail_len + 2) <- uf.size.(i);
    uf.trail_len <- uf.trail_len + 3
  end

let make_set uf =
  grow uf;
  let id = uf.n in
  uf.parent.(id) <- id;
  uf.size.(id) <- 1;
  uf.n <- uf.n + 1;
  uf.n_classes <- uf.n_classes + 1;
  id

let size uf = uf.n

let rec find uf i =
  let p = uf.parent.(i) in
  if p = i then i
  else begin
    let root = find uf p in
    if root <> p then begin
      if i < uf.base then save uf i;
      uf.parent.(i) <- root
    end;
    root
  end

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra = rb then ra
  else begin
    let winner, loser = if uf.size.(ra) >= uf.size.(rb) then (ra, rb) else (rb, ra) in
    if loser < uf.base then save uf loser;
    if winner < uf.base then save uf winner;
    uf.parent.(loser) <- winner;
    uf.size.(winner) <- uf.size.(winner) + uf.size.(loser);
    uf.dirty <- loser :: uf.dirty;
    uf.n_classes <- uf.n_classes - 1;
    winner
  end

let equiv uf a b = find uf a = find uf b
let is_canonical uf i = uf.parent.(i) = i

let dirty uf = uf.dirty
let has_dirty uf = uf.dirty <> []
let clear_dirty uf = uf.dirty <- []
let n_classes uf = uf.n_classes

let begin_trail uf =
  if uf.armed then invalid_arg "Union_find.begin_trail: a trail is already armed";
  if Array.length uf.saved < uf.n then begin
    let saved = Array.make (Array.length uf.parent) 0 in
    Array.blit uf.saved 0 saved 0 (Array.length uf.saved);
    uf.saved <- saved
  end;
  uf.armed <- true;
  uf.epoch <- uf.epoch + 1;
  uf.base <- uf.n;
  uf.trail_len <- 0;
  uf.base_dirty <- uf.dirty;
  uf.base_classes <- uf.n_classes

let trail_entries uf = uf.trail_len / 3

let end_trail uf =
  uf.armed <- false;
  uf.base <- 0;
  uf.trail_len <- 0;
  uf.base_dirty <- []

let undo_trail uf =
  let k = ref (uf.trail_len - 3) in
  while !k >= 0 do
    let i = uf.trail.(!k) in
    uf.parent.(i) <- uf.trail.(!k + 1);
    uf.size.(i) <- uf.trail.(!k + 2);
    k := !k - 3
  done;
  uf.n <- uf.base;
  uf.dirty <- uf.base_dirty;
  uf.n_classes <- uf.base_classes;
  end_trail uf

let copy uf =
  {
    parent = Array.copy uf.parent;
    size = Array.copy uf.size;
    n = uf.n;
    dirty = uf.dirty;
    n_classes = uf.n_classes;
    armed = false;
    base = 0;
    epoch = 0;
    saved = [||];
    trail = [||];
    trail_len = 0;
    base_dirty = [];
    base_classes = 0;
  }
