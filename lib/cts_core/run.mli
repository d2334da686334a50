(** Buffer insertion along a routing run.

    Evaluates what happens when a wire of a given length is routed upward
    from a port. Two engines share the [eval] result type and the
    slew-feasibility model (all slew/delay numbers come from the
    pre-characterized {!Delaylib}):

    - {!eval_greedy} — the paper's slew-driven walk (Sec. 4.2.2):
      buffers are inserted whenever the unbuffered span would exceed the
      slew budget, with "intelligent sizing" — every buffer type is
      evaluated and the one able to stretch the span closest to (but
      within) the limit wins, with a preference for smaller types when
      they come within {!Cts_config.t} [prefer_small_within] of the best
      span.
    - {!eval_dp} — optimal multi-cell insertion: a van Ginneken-style
      candidate-set dynamic program over (position, buffer type) states
      with inferior-candidate pruning per delay-library load class (the
      sorted-list trick of Li & Shi, arXiv:0710.4691), O(b n^2) for b
      buffer types and n candidate positions instead of the naive
      O(b^2 n^2). Minimizes run delay plus [dp_area_weight] per unit of
      buffer area, subject to every stage meeting the slew target.

    {!eval} dispatches on {!Cts_config.t} [insertion].

    {b The run context.} Everything an evaluation reads that depends
    only on (library, config) — buffer caps, areas and load classes,
    the span of every driver into every load class, the sizing pick
    above each class, and the {!Delaylib.fit} handle of every (driver,
    load class) pair — is computed once, eagerly, by {!context}: one
    immutable value per synthesis, read unsynchronized from every
    domain. {!prepare} adds what depends on the port (the stub's class
    and the sizing pick above it, plus the DP scratch); each probe of
    the returned evaluator then reads only those, and a DP probe runs
    over reusable, stamp-invalidated scratch and allocates only its
    result. {!eval} is [prepare] applied once on a fresh context, so
    there is a single code path and a prepared probe returns exactly
    (bit for bit) what a fresh {!eval} returns.

    {b Non-finite lengths.} A NaN or infinite [length] yields the
    buffer-free run with [feasible = false] from both engines (the
    greedy walk would otherwise never reach the top).

    Domain-safety: a {!ctx} is never written after {!context} returns,
    so every domain of the synthesis pool reads it unsynchronized; a
    prepared evaluator owns mutable probe scratch and is used from one
    domain at a time. *)

type placed = { buf : Circuit.Buffer_lib.t; dist : float }
(** A buffer planted [dist] um above the port along the run. *)

type eval = {
  delay_below : float;
      (** Port latency plus all inserted stage delays — everything below
          the top of the run, excluding the still-driverless top wire. *)
  buffers : placed list;  (** Bottom-up (nearest the port first). *)
  top_free : float [@cts.unit "um"];
      (** Wire between the last fixed node (topmost buffer, or the port
          itself) and the top of the run (um). *)
  top_stub_len : float;
      (** Unbuffered length hanging at the run top: [top_free] plus the
          port stub when no buffer was inserted. *)
  top_load : float [@cts.unit "ff"];  (** Load (excl. the [top_stub_len] wire) at the top. *)
  feasible : bool;
      (** The top stub can be driven by the assumed driver within the
          slew target. *)
}

type ctx
(** The per-synthesis run context (see the module doc). *)

val context : Delaylib.t -> Cts_config.t -> ctx
  [@@cts.raises "Invalid_argument"]
(** [context dl cfg] computes the span table — (every library type,
    then [cfg.assumed_driver] when it is not one) × load classes — the
    fit handles and the sizing picks. Sequential; a few hundred delay
    evaluations ({!Obs.Delay_evals_single}), one set per context.
    Raises [Invalid_argument] for a library with no buffer types or an
    assumed driver it was not characterized for. *)

val library : ctx -> Delaylib.t
val config : ctx -> Cts_config.t

val span :
  ctx -> drive:Circuit.Buffer_lib.t -> load_cap:float -> (float[@cts.unit "um"])
  [@@cts.raises "Invalid_argument"]
(** Longest wire [drive] can put in front of a load of the given class
    while meeting the slew target under the target input-slew
    assumption: a table lookup, equal (bit for bit) to
    {!Delaylib.max_length_for_slew} at the context's slew target.
    Raises [Invalid_argument] for a driver outside the table (matched
    by name). *)

val prepare :
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  ctx -> Port.t -> (float[@cts.unit "um"]) -> eval
(** [prepare ctx port] resolves the port (see the module doc) and
    returns an evaluator equal to [eval dl cfg port] at every length —
    the maze builds one per expansion side ({!Maze.eval_memo}). The
    evaluator owns mutable probe scratch: use it from one domain at a
    time. *)

val prepare_dp :
  ?positions:(float[@cts.unit "um"]) list ->
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  ctx -> Port.t -> (float[@cts.unit "um"]) -> eval
(** {!prepare} for the DP engine alone: equal to [eval_dp ?positions
    ?place dl cfg port] at every length. A steady-state probe allocates
    only its result (the [eval] record and its buffer list). *)

val top_delay :
  ctx -> eval -> (float[@cts.unit "um"]) -> (float[@cts.unit "ps"])
(** [top_delay ctx e top_wire] — delay of one side through its top
    wire of the given length, under the assumed-driver model (driver
    intrinsic delay excluded; it is common to both sides of a merge). *)

val eval :
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** [eval dl cfg port length] analyzes a run of [length] um with the
    engine selected by [cfg.insertion].

    [place ~cur ideal] legalizes a planned buffer position [ideal]
    (distance from the port along the run; [cur] is the previous buffer's
    position) against placement blockages: it may pull the position back
    toward [cur] (always slew-safe) or, when everything between [cur] and
    [ideal] is blocked, push it forward past the blockage; [None] means
    no legal position exists anywhere up the rest of the path. For the
    greedy engine, forced forward jumps exceeding the span budget by more
    than 15%, a [None], or a degenerate legalized position mark the run
    infeasible (the merge-node guard legalizes a buffer near the merge
    point in that case). Default: no blockages, [Some ideal].

    Under [Optimal_dp] the greedy solution is kept as an incumbent: the
    result is whichever of {!eval_greedy} and {!eval_dp} is feasible and
    cheaper under {!run_cost}, so the DP engine is never worse than
    greedy on the shared objective. [Obs.Dp_fallbacks] counts the runs
    where greedy won. *)

val eval_greedy :
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** The slew-driven greedy engine (see {!eval} for the [place]
    contract), regardless of [cfg.insertion]. *)

val eval_dp :
  ?positions:(float[@cts.unit "um"]) list ->
  ?place:(cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
          (float[@cts.unit "um"]) option) ->
  Delaylib.t -> Cts_config.t -> Port.t -> (float[@cts.unit "um"]) -> eval
  [@@cts.raises "Invalid_argument"]
(** The candidate-set DP engine, regardless of [cfg.insertion].

    Candidate buffer positions default to a uniform [cfg.dp_grid]-slot
    grid over the run, each slot legalized through [place]; [positions]
    (distances from the port, any order) overrides the grid — the
    brute-force optimality cross-check in the test suite uses it to pin
    both searches to the same discrete position set. Degenerate
    candidates (within 1 um of the port or the previous candidate, or
    within 0.5 um of the run top) are dropped, mirroring the greedy
    engine's bail-outs.

    Always returns an [eval]; the buffer-free base solution exists even
    when no buffered chain is slew-feasible, and [feasible] reports
    whether the returned top stub passes the assumed-driver check.

    The kernel is flat: candidate states live in float/int arrays
    (cost, delay, area, back-pointer) indexed (position, type), fronts
    are int arrays of types, and the stage- and top-wire-delay memos —
    keyed (type, load class, length quantized to 0.01 um), the first
    length seen in a slot supplying its value — are stamped slots
    filled through {!Delaylib.stage_delay_table} /
    {!Delaylib.wire_delay_table}. *)

val run_cost :
  ctx -> eval -> (float[@cts.unit "ps"]) * (float[@cts.unit "dimensionless"])
(** [(cost, area)] of an [eval] under the DP objective: [delay_below]
    plus the assumed-driver wire delay over the top stub plus
    [cfg.dp_area_weight] per unit of inserted buffer area ({!
    Circuit.Buffer_lib.area_x} units); [area] is that total area. The
    optimality oracle compares engines with this — lower [(cost, area)]
    lexicographically is better. *)

val choose_buffer :
  ctx -> stub_len:float -> load_cap:float ->
  Circuit.Buffer_lib.t * (float[@cts.unit "um"])
(** Intelligent sizing: the buffer type whose feasible span (after the
    existing unbuffered [stub_len]) best exploits the slew budget, and
    that span (um; can be non-positive when the stub alone violates). *)

val stage_delay :
  ctx -> Circuit.Buffer_lib.t -> length:float -> load_cap:float -> float
  [@@cts.raises "Invalid_argument"]
(** Buffer intrinsic delay plus wire delay of one stage at the target
    input slew. Raises [Invalid_argument] for a driver outside the
    table. *)
