(** Term extraction (§3.4): find the cheapest term represented by an
    e-class. Cost of an application node is the function's [:cost]
    (default 1) plus the costs of its children; interpreted constants are
    free.

    {!compute} solves this fixpoint over all functions whose output is an
    uninterpreted sort with a dirty-node worklist over dense arrays: the
    e-nodes are scanned once, a parent index maps each class to the
    e-nodes using it, and only e-nodes whose children got cheaper since
    their last evaluation are re-evaluated. The result — every cost and
    every chosen e-node, ties included — is exactly that of repeated
    in-order passes over all e-nodes until nothing improves.

    A {!table} is a snapshot: it is valid only for the database state it
    was computed from. {!Engine} keeps one per engine and reuses it while
    the database is physically the same and its {!Database.version} is
    unchanged. *)

type term = T_app of Symbol.t * term list | T_const of Value.t

val term_to_sexp : term -> Sexpr.t
val pp_term : Format.formatter -> term -> unit

type result = { term : term; cost : int }

type table
(** The best-known construction of every e-class of one database state. *)

val compute : Database.t -> table

val best : table -> int -> (int * Schema.func * Value.t array) option
(** [best t id] is the cost, constructor and key of the e-node chosen for
    the raw id [id], or [None] when its class has no finite-cost term. *)

val extract : table -> Database.t -> Value.t -> result option
(** [None] when the class contains no extractable term (e.g. a fresh id
    never used as a constructor output). Non-id values extract to
    themselves with cost 0. The table must have been computed from the
    database in its current state. *)

val candidates : table -> Database.t -> Value.t -> max:int -> term list
(** Distinct representatives of the class: one term per e-node in the
    class (children extracted min-cost), cheapest first, at most [max].
    Used by optimizers that select among equivalent programs by an
    external metric (e.g. the Herbie pipeline's accuracy search). *)
