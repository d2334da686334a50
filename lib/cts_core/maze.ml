module Point = Geometry.Point

type choice = {
  bin_center : Point.t;
  d1 : float;
  d2 : float;
  eval1 : Run.eval;
  eval2 : Run.eval;
  est_skew : float;
  bins_per_dim : int;
}

(* The cap clamps last so it binds even against [grid_bins]: with the
   old [max grid_bins (min cap wanted)] order a config carrying
   [grid_bins > max_grid_bins] silently exceeded the cap ([Cts_config]
   now also rejects such configs up front). *)
let bins_for (cfg : Cts_config.t) span =
  let wanted = int_of_float (Float.ceil (span /. cfg.target_bin_len)) in
  Int.min cfg.max_grid_bins (Int.max cfg.grid_bins wanted)

(* Round to the nearest 0.1 um. [int_of_float (d *. 10.)] truncated
   toward zero: lengths 0.04 um apart could alias while lengths 0.01 um
   apart split, and the quantization was asymmetric around 0. *)
let cache_key d = int_of_float (Float.round (d *. 10.))

(* Memoized run evaluation for one side: evals depend only on the path
   length, which is heavily shared between bins; quantize to 0.1 um
   (see [cache_key]). The memo is a flat array indexed by the quantized
   key — the farthest probe distance is known up front, so the table is
   preallocated once per side and a hit is one array read: no boxed-int
   keys, no hashing. *)
let eval_memo ctx port ~max_d =
  let table = Array.make (Int.max 0 (cache_key max_d) + 2) None in
  (* Table size is a pure function of the probe geometry, so the
     additive gauge total is schedule-independent; with the
     Eval_cache_misses counter it yields the memo fill rate. *)
  Obs.gauge_add Obs.Maze_memo_slots (Array.length table);
  let probe = Run.prepare ctx port in
  fun d ->
    let key = cache_key d in
    match table.(key) with
    | Some e ->
        Obs.incr Obs.Eval_cache_hits;
        e
    | None ->
        Obs.incr Obs.Eval_cache_misses;
        let e = probe d in
        table.(key) <- Some e;
        e

let select_ctx ctx (p1 : Port.t) (p2 : Port.t) =
  Obs.incr Obs.Maze_selects;
  let cfg = Run.config ctx in
  let pos1 = Port.pos p1 and pos2 = Port.pos p2 in
  let direct = Point.manhattan pos1 pos2 in
  let span = Float.max direct 1. in
  let r = bins_for cfg span in
  (* Bounding box with one bin of margin so detours can bend outward. *)
  let xmin = Float.min pos1.Point.x pos2.Point.x
  and xmax = Float.max pos1.Point.x pos2.Point.x
  and ymin = Float.min pos1.Point.y pos2.Point.y
  and ymax = Float.max pos1.Point.y pos2.Point.y in
  let margin = span /. float_of_int r in
  let xmin = xmin -. margin
  and xmax = xmax +. margin
  and ymin = ymin -. margin
  and ymax = ymax +. margin in
  let fr = float_of_int r in
  let bin_center i j : Point.t =
    {
      x = xmin +. ((float_of_int i +. 0.5) /. fr *. (xmax -. xmin));
      y = ymin +. ((float_of_int j +. 0.5) /. fr *. (ymax -. ymin));
    }
  in
  (* Every probed distance is a manhattan distance from the port to a
     point of the expanded box, so the corner-decomposed maximum bounds
     the memo's key range. *)
  let max_d_from (pos : Point.t) =
    Float.max (pos.Point.x -. xmin) (xmax -. pos.Point.x)
    +. Float.max (pos.Point.y -. ymin) (ymax -. pos.Point.y)
  in
  let eval1 = eval_memo ctx p1 ~max_d:(max_d_from pos1)
  and eval2 = eval_memo ctx p2 ~max_d:(max_d_from pos2) in
  let best = ref None in
  let consider (c : choice) =
    let better =
      match !best with
      | None -> true
      | Some b ->
          let feas c' = c'.eval1.Run.feasible && c'.eval2.Run.feasible in
          if feas c && not (feas b) then true
          else if feas b && not (feas c) then false
          else if c.est_skew < ((b.est_skew -. 0.05e-12) [@cts.unit_ok]) then
            true
          else if c.est_skew > ((b.est_skew +. 0.05e-12) [@cts.unit_ok]) then
            false
          else c.d1 +. c.d2 < ((b.d1 +. b.d2 -. 1.) [@cts.unit_ok])
    in
    if better then best := Some c
  in
  let scan ~detour_only =
    for i = 0 to r - 1 do
      for j = 0 to r - 1 do
        let center = bin_center i j in
        let d1 = Point.manhattan pos1 center
        and d2 = Point.manhattan pos2 center in
        let is_direct = d1 +. d2 <= direct +. (2. *. margin) in
        if (not detour_only) = is_direct then begin
          Obs.incr Obs.Maze_bins_evaluated;
          let e1 = eval1 d1 and e2 = eval2 d2 in
          let t1 = Run.top_delay ctx e1 e1.Run.top_free in
          let t2 = Run.top_delay ctx e2 e2.Run.top_free in
          consider
            {
              bin_center = center;
              d1;
              d2;
              eval1 = e1;
              eval2 = e2;
              est_skew = Float.abs (t1 -. t2);
              bins_per_dim = r;
            }
        end
      done
    done
  in
  scan ~detour_only:false;
  (match !best with
  | Some b when b.est_skew <= 0.5e-12 && b.eval1.Run.feasible && b.eval2.Run.feasible
    -> ()
  | _ -> scan ~detour_only:true);
  match !best with Some b -> b | None -> assert false

let select dl cfg p1 p2 = select_ctx (Run.context dl cfg) p1 p2
