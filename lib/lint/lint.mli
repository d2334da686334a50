(** Source-level determinism / domain-safety lint for this repository.

    Walks every parsed [.ml] of a {!Lint_ir.t} (the front end shared
    with {!Units}, {!Race} and {!Exc}) and enforces the conventions the
    parallel synthesis relies on. Nothing here runs the type-checker:
    the analysis is a deliberately conservative syntactic
    approximation, tuned so that the repository itself lints clean
    while seeded violations are caught.

    Rules:

    - {b L1} — no mutation primitive ([:=], [Hashtbl.*] writes,
      [Array.set] on shared values, mutable-field assignment,
      [Buffer.add*], [Queue]/[Stack]/[Atomic] writes) may be reachable
      from a function submitted to a [Parallel] pool unless an
      enclosing definition carries
      [[@cts.guarded "replay-log" | "mutex[:NAME]" | "atomic" |
      "domain-local"]] ("domain-local" covers [Domain.DLS]-sharded
      accumulators such as the {!Obs} counter store, merged
      deterministically by the coordinator).
      Mutation of values freshly allocated inside the task ([let r =
      ref ...], [let h = Hashtbl.create ...], record/array literals)
      is task-local and always allowed. Reachability is a
      module-level call-graph approximation rooted at the lambda (or
      named function) arguments of [Parallel.map] / [Parallel.iter]
      call sites.
    - {b L2} — no [Random.*] or [Rng] use outside [lib/util/rng.ml]
      and [lib/bmark/synthetic.ml].
    - {b L3} — no wall-clock ([Unix.gettimeofday], [Unix.time],
      [Sys.time]) under [lib/] outside [lib/report], [lib/bench] and
      the observability clock [lib/obs/obs_clock.ml] ([Obs.Clock] is
      the one blessed gateway; timers must go through it).
    - {b L4} — float equality [=] / [<>] on syntactically-float
      operands in [lib/cts_core], [lib/dme], [lib/numerics], unless
      annotated [[@cts.float_eq_ok]].
    - {b L5} — every [.mli] of a [lib/] module whose implementation
      holds or manipulates mutable state must contain a
      [Domain-safety:] doc line.

    A [[@cts.guarded]] attribute whose payload is missing or is not
    one of the four known mechanisms (a ["mutex:NAME"] payload naming
    the specific lock is accepted; {!Race} verifies the name) is
    itself reported (rule L1): blanket suppressions are not
    accepted. *)

type diagnostic = Lint_ir.diagnostic = {
  rule : string;  (** "L1" .. "L5", or "syntax" for unparseable input. *)
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

val normalize_path : string -> string
(** {!Lint_ir.normalize_path}: ["./lib/dme/d.ml"],
    ["/abs/checkout/lib/dme/d.ml"] and ["lib/dme/d.ml"] all scope (and
    report) identically. *)

val lint_ir : Lint_ir.t -> diagnostic list
(** Lint parsed sources: L1–L4 over the implementations, L5 against
    the interface texts, plus the implementations' ["syntax"]
    diagnostics. Sorted and deduplicated. *)

val lint_sources : (string * string) list -> diagnostic list
(** [lint_sources [(path, contents); ...]] lints in-memory sources.
    Paths are significant: rule scoping (L2–L5) keys off normalized
    relative paths such as ["lib/cts_core/cts.ml"]; [.mli] entries are
    consulted (as text) by L5 only. Equivalent to
    [lint_ir (Lint_ir.of_sources sources)]. *)

val lint_paths : string list -> diagnostic list
(** Read the given files from disk and lint them; directory traversal
    is the caller's job (see {!scan}). *)

val scan : string list -> string list
(** Recursively collect [.ml] and [.mli] files under the given files
    or directories, skipping [_build], [.git] and hidden directories;
    the result is sorted for deterministic reports. *)
