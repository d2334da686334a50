(* Seeded L1 violation: a module-level table written from inside a
   Parallel pool task with no [@cts.guarded] mechanism. Kept by
   `make lint-fixtures` as proof the rule still fires. *)

let seen = Hashtbl.create 16

let mark pool xs = Parallel.map pool (fun x -> Hashtbl.replace seen x ()) xs
