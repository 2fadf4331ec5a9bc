(* The standard library's Hashtbl algorithm, specialised to Value.t array
   keys: power-of-two bucket arrays starting at [power_2_above 16 n],
   new bindings pushed at a bucket's head, doubling once the size exceeds
   twice the bucket count, order-preserving rehash. Keeping all of it
   keeps iteration order identical to Value.Key_tbl's. *)

type 'a bucket = Empty | Cons of { key : Value.t array; data : 'a; mutable next : 'a bucket }

(* A structural change, as recorded while armed. *)
type 'a op =
  | Added of int  (* a binding pushed at the head of this bucket *)
  | Removed of int * 'a bucket * 'a bucket
      (* bucket, predecessor (Empty: the bucket head), the unlinked cell,
         whose [next] still names its successor *)
  | Resized of 'a bucket array
      (* the array before doubling; armed resizes copy cells, so its
         chains are left intact *)

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable armed : bool;
  mutable ops : 'a op list;  (* newest first *)
  mutable base_size : int;
}

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  { size = 0; data = Array.make (power_2_above 16 n) Empty; armed = false; ops = []; base_size = 0 }

let length t = t.size
let index t key = Value.hash_key key land (Array.length t.data - 1)

let rec find_in key = function
  | Empty -> None
  | Cons { key = k; data; next } -> if Value.equal_key key k then Some data else find_in key next

(* unrolled like the standard library's: most chains are one or two long *)
let find_opt t key =
  match t.data.(index t key) with
  | Empty -> None
  | Cons { key = k1; data = d1; next = next1 } -> (
    if Value.equal_key key k1 then Some d1
    else
      match next1 with
      | Empty -> None
      | Cons { key = k2; data = d2; next = next2 } ->
        if Value.equal_key key k2 then Some d2 else find_in key next2)

let resize t =
  let odata = t.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    let inplace = not t.armed in
    t.data <- ndata;
    let rec move = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
        let cell = if inplace then cell else Cons { key; data; next = Empty } in
        let i = index t key in
        (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
        tails.(i) <- cell;
        move next
    in
    Array.iter move odata;
    if inplace then Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
    else t.ops <- Resized odata :: t.ops
  end

let add t key data =
  let i = index t key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.armed then t.ops <- Added i :: t.ops;
  if t.size > Array.length t.data lsl 1 then resize t

let remove t key =
  let i = index t key in
  let rec go prec = function
    | Empty -> ()
    | Cons { key = k; next; _ } as cell ->
      if Value.equal_key k key then begin
        t.size <- t.size - 1;
        (match prec with Empty -> t.data.(i) <- next | Cons p -> p.next <- next);
        if t.armed then t.ops <- Removed (i, prec, cell) :: t.ops
      end
      else go cell next
  in
  go Empty t.data.(i)

let iter f t =
  let rec bucket = function
    | Empty -> ()
    | Cons { key; data; next } ->
      f key data;
      bucket next
  in
  Array.iter bucket t.data

let fold f t init =
  let acc = ref init in
  iter (fun key data -> acc := f key data !acc) t;
  !acc

let arm t =
  t.armed <- true;
  t.ops <- [];
  t.base_size <- t.size

let disarm t =
  t.armed <- false;
  t.ops <- []

(* Last-first, each change is reverted in exactly the state it produced. *)
let undo t =
  List.iter
    (function
      | Added i -> (
        match t.data.(i) with
        | Cons { next; _ } -> t.data.(i) <- next
        | Empty -> invalid_arg "Row_map.undo: added binding is gone")
      | Removed (i, prec, cell) -> (
        match prec with Empty -> t.data.(i) <- cell | Cons p -> p.next <- cell)
      | Resized odata -> t.data <- odata)
    t.ops;
  t.size <- t.base_size;
  disarm t
