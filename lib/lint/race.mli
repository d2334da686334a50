(** Interprocedural concurrency-effect race analyzer.

    Where rule L1 (lint.ml) {e trusts} a [[@cts.guarded]] annotation,
    this pass {e verifies} it. Three passes over the shared parsetree
    of a {!Lint_ir.t} (no typer):

    + {b Summaries} — every top-level definition is walked once into a
      per-function effect summary: shared mutations (module-level
      refs / tables / arrays / mutable fields, with the lock set held
      at each write site, threaded flow-sensitively through
      [Mutex.lock] / [Mutex.unlock] / [Mutex.protect]), [Atomic.*]
      operations, lock acquisitions with their resolved identities and
      acquisition order, [Domain.DLS] accesses, blocking calls
      ([Unix.*], [In_channel] / [Out_channel], [Printf] to shared
      channels, ...), and call edges (module-level call-graph
      approximation, aliases resolved).
    + {b Reachability} — the set of functions reachable from closures
      submitted to a [Parallel] pool ([Parallel.map] / [Parallel.iter]
      call sites) or spawned as domains ([Domain.spawn]); plus
      transitive closures of lock acquisition, DLS use and
      may-block over the call graph.
    + {b Diagnostics} — rules C1–C5.

    Rules:

    - {b C1} — a shared mutation reachable from a pool task must be
      protected {e on the actual path}: a lock held at the write, an
      [Atomic.*] primitive, a [Domain.DLS]-derived target, or a
      replay-log write through a caller-provided handle. The enclosing
      [[@cts.guarded]] claim is checked against what the summary
      proves: a ["mutex"] claim with no lock held, an ["atomic"] claim
      on a non-atomic write, a ["domain-local"] claim with no DLS
      access on the path, or a ["replay-log"] claim writing
      module-level state are each reported, as is an unguarded,
      unprotected write. A claim naming its lock
      (["mutex:spans_mutex"]) must name an existing module-level mutex
      {e and} that mutex must be among the locks held at every write
      it covers. A claim on a definition that performs no mutation at
      all is {e stale} and flagged for removal.
    - {b C2} — inconsistent lock sets: the same shared state written
      under disjoint (non-empty) lock sets at two sites.
    - {b C3} — lock-order inversion: lock [B] acquired while [A] is
      held in one function and [A] while [B] is held in another
      (including via calls); also a lock re-acquired while already
      held (OCaml mutexes are not reentrant).
    - {b C4} — a blocking call ([Unix.*], channel I/O, [Printf] to
      shared channels) executed, directly or transitively, while
      holding a lock. [Condition.wait] is exempt (it releases the
      mutex); [[@cts.blocking_ok]] on the call or an enclosing
      definition is the reviewed escape hatch. When a [?raises] effect
      table (from {!Exc.analyze_sources}) is supplied, C4 also flags a
      call made while holding a lock — outside any [try] body,
      [Mutex.protect] or [Fun.protect] — to a callee that may raise:
      the raise unwinds past the unlock and leaks the lock.
    - {b C5} — a [Domain.DLS]-derived value stored into shared
      (module-level) mutable state, escaping its domain.

    Diagnostics are deterministic: sorted by (file, line, col, rule)
    and independent of the order sources are supplied in.

    Domain-safety: all analysis state (summary tables, callgraph,
    worklists) is call-local to {!check_sources}; safe to run from any
    domain. *)

val check_ir :
  ?raises:((string * string) * string list) list ->
  Lint_ir.t ->
  Lint.diagnostic list
(** Analyze the parsed implementations ([.mli] entries are ignored),
    plus their ["syntax"] diagnostics. See {!check_sources} for
    [?raises]. *)

val check_sources :
  ?raises:((string * string) * string list) list ->
  (string * string) list ->
  Lint.diagnostic list
(** [check_sources [(path, contents); ...]] analyzes in-memory
    sources. Paths are normalized as in {!Lint.normalize_path}; only
    [.ml] entries are analyzed ([.mli] entries are ignored).
    [?raises] is the shared may-raise effect table produced by
    {!Exc.analyze_sources} ([(Module, name)] -> exception names); when
    supplied, C4 additionally reports lock-holding calls to may-raise
    callees (default: empty — behavior is unchanged). *)

val check_paths :
  ?raises:((string * string) * string list) list ->
  string list ->
  Lint.diagnostic list
(** Read the given files from disk and analyze them; directory
    traversal is the caller's job (see {!Lint.scan}). *)
