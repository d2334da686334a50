(* Seeded L5 violation: module-level mutable state whose interface has
   no Domain-safety doc line. Kept by `make lint-fixtures` as proof the
   rule still fires. *)

let hits = ref 0
let bump () = incr hits
