(* Seeded L3 violation: a wall-clock read under lib/ outside
   lib/report, lib/bench and Obs.Clock. Kept by `make lint-fixtures`
   as proof the rule still fires. *)

let stamp () = Unix.gettimeofday ()
