(* Surfaces store, per input dimension, the affine normalization
   (center, half-width) used during fitting, the fitted coefficients,
   and the flattened monomial exponent table — an int array computed
   once at fit/parse time. Evaluation walks the canonical monomial
   order with running power products and allocates nothing: the old
   code rebuilt the exponent table (a fresh list plus a boxed-tuple
   array) on every single evaluation, which dominated the synthesis
   hot path (~72k delay-library lookups per small run, 3 evals each). *)

type surface2 = {
  degree2 : int;
  cx2 : float;
  hx2 : float;
  cy2 : float;
  hy2 : float;
  coefs2 : float array; (* indexed like exps2 *)
  exps2 : int array; (* flattened (i, j) pairs, canonical order *)
}

type surface3 = {
  degree3 : int;
  cx3 : float;
  hx3 : float;
  cy3 : float;
  hy3 : float;
  cz3 : float;
  hz3 : float;
  coefs3 : float array;
  exps3 : int array; (* flattened (i, j, k) triples, canonical order *)
}

(* Monomial counts in closed form (no table needed). *)
let n_terms2 d = (d + 1) * (d + 2) / 2
let n_terms3 d = (d + 1) * (d + 2) * (d + 3) / 6

(* Canonical monomial order: total degree <= d, i ascending, then j
   ascending within i (then k ascending within (i, j)). Every consumer
   — fitting, evaluation, serialization — iterates in this one order,
   so coefficient vectors are interchangeable across all of them. *)
let exponents2 degree =
  let t = Array.make (2 * n_terms2 degree) 0 in
  let c = ref 0 in
  for i = 0 to degree do
    for j = 0 to degree - i do
      t.((2 * !c) + 0) <- i;
      t.((2 * !c) + 1) <- j;
      incr c
    done
  done;
  t

let exponents3 degree =
  let t = Array.make (3 * n_terms3 degree) 0 in
  let c = ref 0 in
  for i = 0 to degree do
    for j = 0 to degree - i do
      for k = 0 to degree - i - j do
        t.((3 * !c) + 0) <- i;
        t.((3 * !c) + 1) <- j;
        t.((3 * !c) + 2) <- k;
        incr c
      done
    done
  done;
  t

let norm_params values =
  let lo = Array.fold_left Float.min values.(0) values
  and hi = Array.fold_left Float.max values.(0) values in
  let c = (lo +. hi) /. 2. in
  let h = (hi -. lo) /. 2. in
  (c, if h > 0. then h else 1.)

let pow x n =
  let rec go acc n = if n = 0 then acc else go (acc *. x) (n - 1) in
  go 1. n

let check_finite who pts =
  if not (Array.for_all Float.is_finite pts) then
    invalid_arg (who ^ ": non-finite sample")

let fit2 ~degree pts zs =
  let n = Array.length pts in
  if n <> Array.length zs then invalid_arg "Polyfit.fit2: length mismatch";
  let exps2 = exponents2 degree in
  let terms = n_terms2 degree in
  if n < terms then invalid_arg "Polyfit.fit2: underdetermined";
  let xs = Array.map fst pts and ys = Array.map snd pts in
  check_finite "Polyfit.fit2" xs;
  check_finite "Polyfit.fit2" ys;
  check_finite "Polyfit.fit2" zs;
  let cx2, hx2 = norm_params xs and cy2, hy2 = norm_params ys in
  let design = Matrix.create n terms in
  Array.iteri
    (fun r (x, y) ->
      let xn = (x -. cx2) /. hx2 and yn = (y -. cy2) /. hy2 in
      for c = 0 to terms - 1 do
        let i = exps2.(2 * c) and j = exps2.((2 * c) + 1) in
        Matrix.set design r c (pow xn i *. pow yn j)
      done)
    pts;
  let coefs2 = Matrix.lstsq design zs in
  { degree2 = degree; cx2; hx2; cy2; hy2; coefs2; exps2 }

(* Zero-allocation evaluation: the nested loops enumerate exactly the
   canonical monomial order, and the running products [xp]/[yp] rebuild
   [pow xn i]/[pow yn j] with the same left-associated multiplications,
   so every term — and the summation order — is bit-identical to the
   old exponent-table walk. *)
let eval2 s x y =
  let xn = (x -. s.cx2) /. s.hx2 and yn = (y -. s.cy2) /. s.hy2 in
  let acc = ref 0. in
  let c = ref 0 in
  let xp = ref 1. in
  for i = 0 to s.degree2 do
    let yp = ref 1. in
    for _j = 0 to s.degree2 - i do
      acc := !acc +. (s.coefs2.(!c) *. !xp *. !yp);
      yp := !yp *. yn;
      incr c
    done;
    xp := !xp *. xn
  done;
  !acc

(* The flat copy behind {!flat2}: same normalization, same coefficient
   order, so a caller's running-product walk over it reproduces [eval2]
   term for term. *)
let flat2 s = Array.append [| s.cx2; s.hx2; s.cy2; s.hy2 |] s.coefs2
let degree2 s = s.degree2

let fit3 ~degree pts zs =
  let n = Array.length pts in
  if n <> Array.length zs then invalid_arg "Polyfit.fit3: length mismatch";
  let exps3 = exponents3 degree in
  let terms = n_terms3 degree in
  if n < terms then invalid_arg "Polyfit.fit3: underdetermined";
  let xs = Array.map (fun (x, _, _) -> x) pts
  and ys = Array.map (fun (_, y, _) -> y) pts
  and zs' = Array.map (fun (_, _, z) -> z) pts in
  check_finite "Polyfit.fit3" xs;
  check_finite "Polyfit.fit3" ys;
  check_finite "Polyfit.fit3" zs';
  check_finite "Polyfit.fit3" zs;
  let cx3, hx3 = norm_params xs
  and cy3, hy3 = norm_params ys
  and cz3, hz3 = norm_params zs' in
  let design = Matrix.create n terms in
  Array.iteri
    (fun r (x, y, z) ->
      let xn = (x -. cx3) /. hx3
      and yn = (y -. cy3) /. hy3
      and zn = (z -. cz3) /. hz3 in
      for c = 0 to terms - 1 do
        let i = exps3.(3 * c)
        and j = exps3.((3 * c) + 1)
        and k = exps3.((3 * c) + 2) in
        Matrix.set design r c (pow xn i *. pow yn j *. pow zn k)
      done)
    pts;
  let coefs3 = Matrix.lstsq design zs in
  { degree3 = degree; cx3; hx3; cy3; hy3; cz3; hz3; coefs3; exps3 }

let eval3 s x y z =
  let xn = (x -. s.cx3) /. s.hx3
  and yn = (y -. s.cy3) /. s.hy3
  and zn = (z -. s.cz3) /. s.hz3 in
  let acc = ref 0. in
  let c = ref 0 in
  let xp = ref 1. in
  for i = 0 to s.degree3 do
    let yp = ref 1. in
    for j = 0 to s.degree3 - i do
      let zp = ref 1. in
      for _k = 0 to s.degree3 - i - j do
        acc := !acc +. (s.coefs3.(!c) *. !xp *. !yp *. !zp);
        zp := !zp *. zn;
        incr c
      done;
      yp := !yp *. yn
    done;
    xp := !xp *. xn
  done;
  !acc

let exponent_table2 s = Array.copy s.exps2
let exponent_table3 s = Array.copy s.exps3

let floats_to_string fs =
  String.concat " " (List.map (Printf.sprintf "%.17g") fs)

let surface2_to_string s =
  floats_to_string
    (float_of_int s.degree2 :: s.cx2 :: s.hx2 :: s.cy2 :: s.hy2
    :: Array.to_list s.coefs2)

let surface2_of_string str =
  match String.split_on_char ' ' (String.trim str) with
  | d :: cx :: hx :: cy :: hy :: rest ->
      let degree2 = int_of_float (float_of_string d) in
      let coefs2 = Array.of_list (List.map float_of_string rest) in
      if Array.length coefs2 <> n_terms2 degree2 then
        invalid_arg "Polyfit.surface2_of_string: coefficient count";
      {
        degree2;
        cx2 = float_of_string cx;
        hx2 = float_of_string hx;
        cy2 = float_of_string cy;
        hy2 = float_of_string hy;
        coefs2;
        exps2 = exponents2 degree2;
      }
  | _ -> invalid_arg "Polyfit.surface2_of_string: malformed"

let surface3_to_string s =
  floats_to_string
    (float_of_int s.degree3 :: s.cx3 :: s.hx3 :: s.cy3 :: s.hy3 :: s.cz3
    :: s.hz3
    :: Array.to_list s.coefs3)

let surface3_of_string str =
  match String.split_on_char ' ' (String.trim str) with
  | d :: cx :: hx :: cy :: hy :: cz :: hz :: rest ->
      let degree3 = int_of_float (float_of_string d) in
      let coefs3 = Array.of_list (List.map float_of_string rest) in
      if Array.length coefs3 <> n_terms3 degree3 then
        invalid_arg "Polyfit.surface3_of_string: coefficient count";
      {
        degree3;
        cx3 = float_of_string cx;
        hx3 = float_of_string hx;
        cy3 = float_of_string cy;
        hy3 = float_of_string hy;
        cz3 = float_of_string cz;
        hz3 = float_of_string hz;
        coefs3;
        exps3 = exponents3 degree3;
      }
  | _ -> invalid_arg "Polyfit.surface3_of_string: malformed"
