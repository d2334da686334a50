(** Least-squares polynomial surface fitting.

    The delay/slew library of Chapter 3 of the paper stores 3rd/4th-order
    polynomial fits of simulation data over (input slew, wire length), and
    trivariate fits for branch components. Inputs are affinely normalized
    to [-1, 1] per dimension before fitting so the monomial normal
    equations stay well conditioned.

    Surfaces carry their flattened monomial exponent table (an int
    array built once at fit/parse time), and {!eval2}/{!eval3} walk the
    canonical monomial order with running power products — they perform
    no allocation per call and are bit-identical (same term values,
    same summation order) to a naive exponent-table walk. This matters:
    a small synthesis run performs ~10^5 surface evaluations.

    Domain-safety: fitting allocates its own scratch matrices per call; no global state. Fitted surfaces are immutable and safe to share across domains. *)

type surface2
(** Bivariate polynomial surface [f (x, y)]. *)

type surface3
(** Trivariate polynomial hypersurface [f (x, y, z)]. *)

val fit2 :
  degree:int -> (float * float) array -> float array -> surface2
  [@@cts.raises "Failure,Invalid_argument"]
(** [fit2 ~degree pts zs] fits all monomials [x^i y^j] with
    [i + j <= degree] to the samples. Requires at least as many samples as
    monomials. Raises [Invalid_argument] when any sample coordinate or
    value is NaN or infinite — a non-finite sample would otherwise
    poison every coefficient and only surface as a strict-writer
    refusal far from the cause. *)

val eval2 : surface2 -> float -> float -> float
(** Allocation-free evaluation (cached-powers loop). *)

val flat2 : surface2 -> float array
(** A fresh copy of the surface as one float array:
    [[| cx; hx; cy; hy; c_0; ...; c_(n-1) |]] — the per-axis
    normalization ([xn = (x - cx) / hx], likewise [y]) followed by the
    coefficients in the canonical monomial order. For hot loops that
    must not box a float per {!eval2} call: walking this array with
    {!eval2}'s running products ([acc += c_k * xp * yp], [i] ascending
    then [j] ascending) is bit-identical to {!eval2}. *)

val degree2 : surface2 -> int
(** Total degree bound the surface was fitted with. *)

val fit3 :
  degree:int -> (float * float * float) array -> float array -> surface3
  [@@cts.raises "Failure,Invalid_argument"]
(** Trivariate analogue of {!fit2} (total degree bound; same
    non-finite-sample rejection). *)

val eval3 : surface3 -> float -> float -> float -> float
(** Allocation-free evaluation (cached-powers loop). *)

val n_terms2 : int -> int
(** Number of monomials of total degree <= d in two variables. *)

val n_terms3 : int -> int

val exponent_table2 : surface2 -> int array
(** A copy of the flattened exponent table: [2*n_terms2] ints, the
    [(i, j)] pair of monomial [c] at indices [2c, 2c+1], in the
    canonical order ([i] ascending, then [j] ascending). The reference
    oracle in the test suite evaluates through this table and asserts
    bit-identity with {!eval2}. *)

val exponent_table3 : surface3 -> int array
(** Trivariate analogue: [3*n_terms3] ints, triples in canonical
    order. *)

val surface2_to_string : surface2 -> string
(** One-line serialization (whitespace-separated floats), inverse of
    {!surface2_of_string}. *)

val surface2_of_string : string -> surface2
  [@@cts.raises "Failure,Invalid_argument"]
(** Parse of {!surface2_to_string} output; raises [Failure] /
    [Invalid_argument] on malformed input. *)

val surface3_to_string : surface3 -> string
val surface3_of_string : string -> surface3
  [@@cts.raises "Failure,Invalid_argument"]
