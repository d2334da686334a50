(* Seeded L2 violation: randomness outside lib/util/rng.ml and
   lib/bmark/synthetic.ml. Kept by `make lint-fixtures` as proof the
   rule still fires. *)

let coin () = Random.bool ()
