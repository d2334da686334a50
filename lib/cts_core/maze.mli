(** Bi-directional maze routing (Sec. 4.2.2, Fig. 4.3).

    The region between the two subtree roots is partitioned into a grid
    whose bin count per dimension starts at {!Cts_config.t} [grid_bins]
    and grows for long nets (dynamic grid refinement). Expansion runs
    from {e both} roots simultaneously: every bin carries the
    slew-legalized propagation state ({!Run.eval}) toward each root, and
    the bin with minimum delay difference — tie-broken by total
    wirelength — is picked as the tentative merge location. 

    Domain-safety: per-select memo caches are closure-captured and private to one evaluation; nothing is shared across tasks or domains. *)

type choice = {
  bin_center : Geometry.Point.t;
  d1 : float [@cts.unit "um"];
      (** Path length from port 1 to the bin (um). *)
  d2 : float [@cts.unit "um"];
  eval1 : Run.eval;
  eval2 : Run.eval;
  est_skew : float;  (** |delay1 - delay2| including top-wire estimates. *)
  bins_per_dim : int;  (** Grid resolution actually used. *)
}

val bins_for : Cts_config.t -> (float[@cts.unit "um"]) -> int
(** Grid bins per dimension for a net spanning the given distance (um):
    [grid_bins] grown toward a [target_bin_len] pitch, capped at
    [max_grid_bins] (the cap binds even against a misconfigured
    [grid_bins]; {!Cts_config.validate} rejects such configs). Exposed
    for the clamp-order regression test. *)

val cache_key : (float[@cts.unit "um"]) -> int
(** Per-side eval-cache quantization of a path length: nearest 0.1 um
    ([Float.round], symmetric around 0 — truncation aliased lengths
    0.04 um apart while splitting lengths 0.01 um apart). Exposed for
    the rounding regression test. *)

val eval_memo :
  Run.ctx -> Port.t -> max_d:(float[@cts.unit "um"]) ->
  (float[@cts.unit "um"]) -> Run.eval
(** [eval_memo ctx port ~max_d] — a memoizing evaluator for one
    expansion side, over one {!Run.prepare}d evaluator for [port]:
    distances quantized through {!cache_key} into a
    flat table preallocated for keys up to [max_d] (a hit is a single
    array read). Counts [Obs.Eval_cache_hits]/[Eval_cache_misses].
    Probing a distance beyond [max_d] raises [Invalid_argument].
    Closure-captured scratch: private to one evaluation, never shared
    across domains. Exposed for the micro-benchmarks and the
    memo-vs-direct oracle test. *)

val select_ctx : Run.ctx -> Port.t -> Port.t -> choice
(** Run the bi-directional expansion and return the best merge bin.
    Near-direct bins (no detour) are scanned first; detour bins are only
    explored when the direct scan leaves residual skew. Each side's
    delay is {!Run.top_delay} at the bin. *)

val select : Delaylib.t -> Cts_config.t -> Port.t -> Port.t -> choice
  [@@cts.raises "Invalid_argument"]
(** {!select_ctx} on a fresh {!Run.context}. *)
