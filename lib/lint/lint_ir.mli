(** Shared front end of the four source analyzers: {!Lint} (L1–L5),
    {!Units} (U1–U4), {!Race} (C1–C5) and {!Exc} (E1–E5).

    Each source is parsed once here (an [.ml] as an implementation, an
    [.mli] as an interface) into a {!t} that every analyzer walks; an
    unparseable source becomes one ["syntax"] diagnostic.
    Analyzers only read a {!t} (its alias tables are never extended),
    so one value can be handed to every family in turn, as [cts_lint]
    does, with the same diagnostics as a fresh parse per family.

    Domain-safety: a {!t} and a {!defs} table are plain values owned by
    their caller; nothing here is shared across calls. *)

(** {1 Diagnostics} *)

type diagnostic = {
  rule : string;  (** "L1" .. "E5", or "syntax" for unparseable input. *)
  file : string;
  line : int;
  col : int;
  message : string;
}

val to_string : diagnostic -> string
(** ["file:line:col: [rule] message"]. *)

val compare_diagnostic : diagnostic -> diagnostic -> int
(** Report order: (file, line, col, rule, message). *)

val sort_diagnostics : diagnostic list -> diagnostic list
(** Sort by {!compare_diagnostic} and deduplicate. *)

val line_col : Location.t -> int * int
(** Line and 0-based column of a location's start. *)

val diag_at : string -> string -> Location.t -> string -> diagnostic
(** [diag_at rule file loc message]. *)

(** {1 Paths and strings} *)

val normalize_path : string -> string
(** Drop ["."] segments, resolve [".."] where possible, and re-root at
    the last segment naming a top-level source directory ([lib], [bin],
    [bench], [test], [examples]), so rule scoping by relative path
    works from any spelling of a repository file. *)

val has_prefix : string -> string -> bool
val has_suffix : string -> string -> bool
val contains : string -> string -> bool

(** {1 Syntactic helpers} *)

val dotted : string list -> string
(** The last two segments of a flattened identifier:
    [["Stdlib"; "Hashtbl"; "add"]] -> ["Hashtbl.add"]. *)

val qualified : string list -> (string list * string * string) option
(** [[M1; ...; Mk; x]] (k >= 1) -> [Some ([M1; ...; Mk], Mk, x)];
    [None] for a bare name. *)

val apply_head : Parsetree.expression -> string list option
(** The flattened identifier of an applied function, if it is one. *)

val string_payload : Parsetree.payload -> string option
(** The payload of [[@attr "text"]]. *)

val string_attr : string -> Parsetree.attributes -> string option
(** String payload of the first attribute with this name that has
    one. *)

val has_attr : string -> Parsetree.attributes -> bool

module Env : Map.S with type key = string
(** Analyzer environments: locally bound name -> analyzer kind. *)

val bind : 'k -> 'k Env.t -> Parsetree.pattern -> 'k Env.t
(** Bind every variable of a pattern to one kind. *)

val bind_let :
  kind:(Parsetree.expression -> 'k) ->
  plain:'k ->
  'k Env.t ->
  Asttypes.rec_flag ->
  Parsetree.value_binding list ->
  'k Env.t * 'k Env.t
(** A [let]'s (body, right-hand-side) environments: a bare variable
    gets [kind rhs], any other pattern's variables [plain]. *)

val nolabel_args :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression list

val strip_constraint : Parsetree.expression -> Parsetree.expression
(** Peel type constraints and [fun (type t) ->] binders. *)

val iter_exprs : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** Pre-order visit of an expression and every expression in it. *)

val exists_expr : (Parsetree.expression -> bool) -> Parsetree.expression -> bool

val walk_case :
  ('env -> Parsetree.pattern -> 'env) ->
  ('env -> Parsetree.expression -> unit) ->
  'env ->
  Parsetree.case ->
  unit
(** [walk_case bind walk env c]: the guard, then the right-hand side,
    under [bind env c.pc_lhs]. *)

val walk_children :
  ('env -> Parsetree.pattern -> 'env) ->
  ('env -> Parsetree.expression -> unit) ->
  'env ->
  Parsetree.expression ->
  unit
(** The analyzers' generic fallback: [walk] each direct child
    expression, cases through {!walk_case}; attributes, patterns and
    types are skipped. *)

(** {1 Shared tables} *)

val mechanism : string -> (string * string option) option
(** Parse a [[@cts.guarded]] payload: one of ["replay-log"],
    ["mutex"], ["atomic"], ["domain-local"], or ["mutex:NAME"] as
    [("mutex", Some NAME)]. *)

val write_prims : (string * (int * int option)) list
(** Mutation primitives: head -> (mutated positional argument, stored
    value argument if any). *)

val fresh_allocs : string list
(** Allocators whose result is fresh mutable state. *)

(** {1 Parsed sources} *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type file = {
  path : string;  (** Normalized. *)
  modname : string;
  text : string;
  ast : (ast, diagnostic) result;
      (** The source's ["syntax"] diagnostic when it does not parse. *)
  aliases : (string, string) Hashtbl.t;
      (** Top-level [module A = M.B] aliases ([A] -> [B]) of an
          implementation. Read-only. *)
}

type t = file list
(** Sorted by path. *)

val of_sources : (string * string) list -> t
(** Normalize, sort and parse in-memory [(path, contents)] sources;
    entries that are neither [.ml] nor [.mli] are dropped. *)

val of_paths : string list -> t
(** Read the given files and {!of_sources} them. *)

val implementations : t -> (file * Parsetree.structure) list
val interfaces : t -> (file * Parsetree.signature) list

val syntax_errors : interfaces:bool -> t -> diagnostic list
(** The ["syntax"] diagnostics; those of [.mli] sources only when
    [interfaces]. *)

val resolve_alias : file -> string -> string

val ref_key : file -> string list -> (string * string) option
(** [(resolved module, name)] of a qualified value reference. *)

val resource_id :
  file -> local:(string -> string option) -> Parsetree.expression -> string
(** Identity of a lock expression: a module-level name gets its
    qualified path (aliases resolved), a record field a field-keyed
    identity (["<.mutex>"]: every [pool.mutex] is one lock to the
    analyses), a locally bound name whatever [local] makes of it. *)

(** {1 Top-level bindings and task roots} *)

type binding = {
  name : string;
      (** The bound variable, ["_top_LINE"] for another pattern,
          ["_eval"] for a top-level expression. *)
  vb : Parsetree.value_binding option;  (** [None] for an expression. *)
  attrs : Parsetree.attributes;
  expr : Parsetree.expression;
  loc : Location.t;
}

val iter_bindings :
  ?other:(Parsetree.structure_item -> unit) ->
  (binding -> unit) ->
  Parsetree.structure ->
  unit
(** Visit value bindings and top-level expressions in order; every
    other item goes to [other]. *)

type task = Pool | Spawn

val task_of : file -> string list -> task option
(** [Pool] for [Parallel.map] / [Parallel.iter] (aliases resolved),
    [Spawn] for [Domain.spawn]. *)

val is_closure : Parsetree.expression -> bool
(** A lambda or a name: what a task submission can defer. *)

val iter_pool_args :
  closure:(Parsetree.expression -> unit) ->
  other:(Parsetree.expression -> unit) ->
  (Asttypes.arg_label * Parsetree.expression) list ->
  unit
(** The arguments of a {!Pool} submission: positional ones in order
    ([closure] for each {!is_closure} after the pool, [other] for the
    rest), then [other] for each labelled one. *)

(** {1 Definition table, fixpoint and reachability} *)

type 'a defs
(** Nodes keyed by [(Module, name)], plus every node (keyed or not) in
    creation order. An edge [("", n)] names a definition of the
    caller's own module. *)

val create_defs : unit -> 'a defs
val find_def : 'a defs -> string * string -> 'a option

val def : 'a defs -> string * string -> (unit -> 'a) -> 'a
(** The node under this key, created on first use. *)

val add_node : 'a defs -> 'a -> unit
(** Record a node that has no key (a task root). *)

val nodes : 'a defs -> 'a list

val callee :
  'a defs -> string -> string * string -> (string * string) * 'a option
(** [callee defs caller_module edge]: the resolved key and its node. *)

val chain : string * string -> string -> string
(** A witness-chain step: ["M.n -> witness"]. *)

val until_stable : (unit -> bool) -> unit
(** Run rounds until one reports no change. *)

val fixpoint :
  'a defs ->
  modname:('a -> string) ->
  edges:('a -> ((string * string) * 'e) list) ->
  transfer:('a -> string * string -> 'e -> 'a -> bool) ->
  'a list ->
  unit
(** Monotone fixpoint over the call graph: rounds over the nodes in
    order and each node's edges in order; for an edge resolving to
    another node, [transfer caller key edge callee] reports whether
    the caller changed. Stops after a round without change. *)

val reachable :
  'a defs ->
  modname:('a -> string) ->
  edges:('a -> ((string * string) * 'e) list) ->
  'a list ->
  'a list
(** The roots plus every node reachable from them. *)
