(** Seeded L5 fixture: the implementation holds a counter, and this
    interface does not document how it behaves across domains. *)

val bump : unit -> unit
