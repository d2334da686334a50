(** Flattened RC trees for fast repeated linear solves.

    Nodes are numbered in preorder so every parent index precedes its
    children, which lets the simulator run the exact O(n) tree
    LU-elimination. Only the root row of a stage's system changes
    between Newton iterations (it carries the nonlinear driver), so the
    elimination is split into pieces: {!factor} eliminates the diagonal
    once per stage, {!reduce} eliminates a right-hand side once per
    timestep, {!eliminate_root} folds the root's children into the root
    row in O(root degree) per Newton iteration, and {!back_substitute}
    recovers every other node once the root is known. {!solve} is the
    composition of the four.

    Domain-safety: a flattened tree carries per-instance solver arrays; use one instance per domain. No global state. *)

type t = {
  n : int;
  parent : int array;  (** [parent.(0) = -1]. *)
  g_edge : float array;  (** Conductance of the edge to the parent (S). *)
  cap : float array;  (** Grounded capacitance per node (F). *)
  tag_index : (string * int) list;  (** Tagged node -> index. *)
}

val of_tree : Circuit.Rc_tree.t -> t

val index_of_tag : t -> string -> int
(** Raises [Not_found] for unknown tags. *)

type factored
(** The symmetric tree-structured system whose row [i] reads
    [diag.(i) * v_i - g_edge.(i) * v_parent(i)
    - sum_children g_edge.(c) * v_c = rhs.(i)], with every non-root
    diagonal entry eliminated. *)

(** The root row during its scalar solve. A float-only record, so
    updating it allocates nothing. *)
type row = { mutable diag : float; mutable rhs : float }

val factor : t -> diag:float array -> factored
(** [factor t ~diag] eliminates every non-root diagonal entry, leaf to
    root. [diag] (length [n]) is read, not modified. *)

val root_degree : factored -> int
(** Number of children of the root. *)

val reduce : factored -> rhs:float array -> kr:float array -> unit
(** Eliminate a right-hand side: every non-root entry of [rhs] is reduced
    in place, and [kr] (length {!root_degree}) receives what each of the
    root's children adds to the root's right-hand side, in elimination
    order (descending index). [rhs.(0)] is not read. *)

val eliminate_root : factored -> kr:float array -> row -> unit
(** Fold the root's children into the root row in elimination order:
    subtract what each child's elimination takes from the diagonal, and
    add [kr] to [row.rhs]. The root's value is then
    [row.rhs /. row.diag]. *)

val back_substitute : factored -> rhs:float array -> into:float array -> unit
(** Given the root's value in [into.(0)] and a {!reduce}d [rhs], write
    every other node's value into [into], root to leaves. *)

val solve : t -> diag:float array -> rhs:float array -> into:float array -> unit
(** [solve t ~diag ~rhs ~into] solves the system above with the given
    [diag] and [rhs]; the solution is written to [into]. [rhs] is
    clobbered. All arrays must have length [n]. *)
