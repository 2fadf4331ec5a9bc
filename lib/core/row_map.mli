(** The map from keys to rows inside a {!Table}: the bucket layout, and so
    the iteration order, of [Value.Key_tbl] (the standard library's
    [Hashtbl.Make], unseeded), plus an undo log.

    Iteration order matters beyond taste: it orders full-table scans, and
    so the order matches are applied, fresh ids handed out and rebuild
    rows re-inserted, which decides how many rows get re-stamped. A
    transaction that rolls back must therefore leave the buckets exactly
    as it found them, which the standard table cannot do once a removed
    key has been re-added at a bucket's head or the bucket array has
    grown. While armed, this map records every structural change and
    {!undo} reverts them last-first. *)

type 'a t

val create : int -> 'a t
(** Same initial bucket count as [Hashtbl.create]. *)

val length : 'a t -> int
val find_opt : 'a t -> Value.t array -> 'a option

val add : 'a t -> Value.t array -> 'a -> unit
(** Bind a key that is not bound (as [Hashtbl.replace] does for an
    absent key). *)

val remove : 'a t -> Value.t array -> unit
val iter : (Value.t array -> 'a -> unit) -> 'a t -> unit
(** Must not mutate the map. *)

val fold : (Value.t array -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val arm : 'a t -> unit
(** Start recording structural changes. *)

val disarm : 'a t -> unit
(** Keep the changes and stop recording. *)

val undo : 'a t -> unit
(** Revert every change since {!arm} — bindings, chain order and bucket
    count — and stop recording. *)
