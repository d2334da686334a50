(* Seeded L4 violation: float equality in lib/numerics without an
   epsilon helper or [@cts.float_eq_ok]. Kept by `make lint-fixtures`
   as proof the rule still fires. *)

let is_one x = x = 1.0
