(* End-to-end benchmark of the CTS flow.

   One process, a pool of [domains] domains, a closed loop with one
   client: each synthesis is followed by its verification before the
   next one starts. The flow is: accurate-profile library ->
   Cts.synthesize -> Ctree_sim.simulate + Cts.verify_tree.

     cts_perfbench --workload NAME --seed N --seconds S --trace 0|1
                   [--out DIR]

   --trace 0 measures the end-to-end metrics; --trace 1 is the separate
   traced run that measures each layer from outside, by timing calls
   into its public functions, and writes its spans to DIR. The last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics. *)

let now = Unix.gettimeofday
let domains = 2
(* Computed as cts_run computes it from --slew-limit 100, so the trees
   match cts_run's bit for bit. *)
let slew_limit_ps = 100.
let slew_limit = slew_limit_ps *. 1e-12
let setup_reps = 3

type workload = {
  name : string;
  bench : string;  (* Bmark.Synthetic descriptor *)
  insertion : Cts_config.insertion;
  instances : int;
      (* Instances per untraced run. Synthesis time and QoR vary with the
         instance (a fnb1 synthesis takes 25-40% longer on some than on
         others; r1-dp skew spread 22% between quartiles over six seeds
         with one instance), so runs time rounds over several and report
         the mean; an r1-dp synthesis is too long for more than two. *)
}

(* BENCHMARK.json lists r5-greedy and r1-dp; fnb1-greedy is runnable by
   hand (its synth_s spread too widely on a 2-CPU host, see README.md). *)
let workloads =
  [
    { name = "r5-greedy"; bench = "r5"; insertion = Greedy; instances = 3 };
    { name = "fnb1-greedy"; bench = "fnb1"; insertion = Greedy; instances = 3 };
    { name = "r1-dp"; bench = "r1"; insertion = Optimal_dp; instances = 2 };
  ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
}

let usage () =
  Printf.eprintf
    "usage: cts_perfbench --workload %s --seed N --seconds S --trace 0|1 \
     [--out DIR]\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

let parse_args argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k kv in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "out" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) kv then usage ();
  let workload =
    match get "workload" with
    | Some n -> (
        match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> w
        | None -> usage ())
    | None -> usage ()
  in
  let int_of k default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let seconds = int_of "seconds" 10 in
  if seconds < 1 then usage ();
  {
    workload;
    seed = int_of "seed" 0;
    seconds = float_of_int seconds;
    trace =
      (match get "trace" with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some _ -> usage ());
    out_dir = Option.value ~default:"perfbench/_out" (get "out");
  }

(* ------------------------------------------------------------------ *)
(* The flow                                                            *)

(* Instance 0 of seed 0 is the canonical one; any other seed re-seeds
   the same descriptor (sink count, die, cap range) through its name, and
   a run's further instances append their index. *)
let instance_name w ~seed k =
  match (seed, k) with
  | 0, 0 -> w.bench
  | _, 0 -> Printf.sprintf "%s#%d" w.bench seed
  | _ -> Printf.sprintf "%s#%d.%d" w.bench seed k

let instance w ~seed k =
  let d = Bmark.Synthetic.find w.bench in
  Bmark.Synthetic.sinks { d with Bmark.Synthetic.name = instance_name w ~seed k }

let characterize pool =
  Delaylib.characterize ~profile:Delaylib.Accurate ~pool Circuit.Tech.default
    Circuit.Buffer_lib.default_library

let config dl w =
  {
    (Cts_config.default dl) with
    Cts_config.hstructure = Cts_config.H_none;
    insertion = w.insertion;
    slew_limit;
    slew_target = 0.8 *. slew_limit_ps *. 1e-12;
  }

(* The tree's QoR, as the values of [qor_metrics]. *)
let qor_metrics =
  [
    ("buffers", "count");
    ("wirelength_mm", "mm");
    ("sim_skew_ps", "ps");
    ("sim_latency_ps", "ps");
    ("sim_worst_slew_ps", "ps");
  ]

let qor tree (sim : Ctree_sim.metrics) =
  [|
    float_of_int (Ctree.n_buffers tree);
    Ctree.total_wirelength tree /. 1000.;
    sim.Ctree_sim.skew *. 1e12;
    sim.Ctree_sim.latency *. 1e12;
    sim.Ctree_sim.worst_slew *. 1e12;
  |]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let digest (res : Cts.result) =
  Digest.to_hex
    (Digest.string (Ctree_netlist.to_deck Circuit.Tech.default res.Cts.tree))

(* Why a finished synthesis counts as failed; [] when it passes. *)
let problems ~reference ~violations (m : Ctree_sim.metrics) dig =
  List.filter_map Fun.id
    [
      (if violations = [] then None
       else
         Some
           (Printf.sprintf "verify_tree: %d violations, first: %s"
              (List.length violations)
              (Ctree_check.to_string (List.hd violations))));
      (if m.Ctree_sim.all_settled then None else Some "a stage did not settle");
      (if m.Ctree_sim.worst_slew <= slew_limit then None
       else
         Some
           (Printf.sprintf "simulated worst slew %.1f ps exceeds %.0f ps"
              (m.Ctree_sim.worst_slew *. 1e12)
              (slew_limit *. 1e12)));
      (match reference with
      | Some d when d <> dig -> Some "netlist digest differs from the first repetition"
      | _ -> None);
    ]

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    | exception End_of_file -> 0.
  in
  scan ()

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let host_facts a ~sinks =
  Printf.printf "workload %s seed %d: %d sinks (%s, %s insertion, H_none)\n"
    a.workload.name a.seed (List.length sinks)
    a.workload.bench
    (Cts_config.insertion_name a.workload.insertion);
  Printf.printf
    "host: nproc %d, OCaml %s, profile accurate, pool %d domains, closed loop \
     with 1 client\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version domains

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let finish ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "metric %-32s %16.6f %s\n" x.mname x.value x.unit_)
    metrics;
  Printf.printf "fail_frac %.4f (%d failed / %d attempted)\n"
    (float_of_int failed /. float_of_int (Int.max 1 attempted))
    failed attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
              (json_number x.value) x.unit_)
          metrics));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)

let untraced a =
  let w = a.workload in
  (* Set-up, several times; the median is reported and the last one is
     kept. *)
  let setup () =
    Gc.full_major ();
    timed (fun () ->
        let pool = Parallel.create ~size:domains () in
        let dl = characterize pool in
        (pool, dl, Array.init w.instances (instance w ~seed:a.seed)))
  in
  let setup_times = ref [] in
  let rec set_up k =
    let ((pool, _, _) as s), t = setup () in
    setup_times := t :: !setup_times;
    if k = 1 then s
    else begin
      Parallel.shutdown pool;
      set_up (k - 1)
    end
  in
  let pool, dl, instances = set_up setup_reps in
  let cfg = config dl w in
  let attempted = ref 0 and failed = ref 0 in
  (* No tree is kept, so later syntheses do not carry a growing live
     heap: each instance's first digest is its reference and its first
     tree's QoR is recorded. *)
  let references = Array.make w.instances None
  and qors = Array.make w.instances None in
  (* One synthesis of instance [k] and its verification: the timings when
     it passes. *)
  let run k =
    incr attempted;
    Gc.full_major ();
    match
      let res, synth_s =
        timed (fun () -> Cts.synthesize ~config:cfg ~pool dl instances.(k))
      in
      let (sim, violations), verify_s =
        timed (fun () ->
            let sim = Ctree_sim.simulate Circuit.Tech.default res.Cts.tree in
            (sim, Cts.verify_tree dl cfg res.Cts.tree))
      in
      (res, synth_s, sim, violations, verify_s)
    with
    | exception e ->
        incr failed;
        Printf.eprintf "repetition %d raised %s\n%!" !attempted
          (Printexc.to_string e);
        None
    | res, synth_s, sim, violations, verify_s -> (
        let dig = digest res in
        if references.(k) = None then references.(k) <- Some dig;
        match problems ~reference:references.(k) ~violations sim dig with
        | [] ->
            Printf.printf "repetition %d (instance %d): synth %.3f s, verify %.3f s\n%!"
              !attempted k synth_s verify_s;
            if qors.(k) = None then qors.(k) <- Some (qor res.Cts.tree sim);
            Some (synth_s, verify_s)
        | ps ->
            incr failed;
            List.iter
              (Printf.eprintf "repetition %d failed: %s\n%!" !attempted)
              ps;
            None)
  in
  (* The first synthesis warms the heap and the span memo; it is verified
     but not timed (on r5 it often ran 10-40% slower than the rest). Then
     rounds over all instances until the time is up; a round's time is
     its mean per synthesis. *)
  let t_start = now () in
  ignore (run 0);
  let rounds = ref [] and n_rounds = ref 0 in
  while !n_rounds = 0 || now () -. t_start < a.seconds do
    incr n_rounds;
    let results = List.init w.instances run in
    if List.for_all Option.is_some results then begin
      let times = List.filter_map Fun.id results in
      let mean f =
        List.fold_left (fun acc t -> acc +. f t) 0. times
        /. float_of_int w.instances
      in
      rounds := (mean fst, mean snd) :: !rounds
    end
  done;
  Parallel.shutdown pool;
  let synth_s = median (List.map fst !rounds)
  and verify_s = median (List.map snd !rounds) in
  let sinks = instances.(0) in
  host_facts a ~sinks;
  Printf.printf "%d rounds over %d instances timed, after a warm-up, in %.1f s\n"
    (List.length !rounds) w.instances (now () -. t_start);
  Array.iteri
    (fun k q ->
      Printf.printf "qor %s:" (instance_name w ~seed:a.seed k);
      Option.iter
        (fun q -> List.iteri (fun i (n, _) -> Printf.printf " %s %.6f" n q.(i)) qor_metrics)
        q;
      print_newline ())
    qors;
  (* Printed, not measured against a bound: peak RSS follows GC timing
     across the two domains (43-73 MB over five r1-dp runs). *)
  Printf.printf "unbounded peak_rss_mb %.3f\n" (peak_rss_mb ());
  let complete = !rounds <> [] && Array.for_all Option.is_some qors in
  (* QoR metrics are means over the run's instances. *)
  let mean_qor i =
    Array.fold_left
      (fun acc q -> match q with Some q -> acc +. q.(i) | None -> acc)
      0. qors
    /. float_of_int w.instances
  in
  finish ~correct:(!failed = 0 && complete) ~attempted:!attempted
    ~failed:!failed
    ([
       m "setup_s" "s" (median !setup_times);
       m "synth_s" "s" synth_s;
       m "verify_s" "s" verify_s;
       m "sinks_per_s" "1/s"
         (if !rounds = [] then 0.
          else float_of_int (List.length sinks) /. (synth_s +. verify_s));
     ]
    @ List.mapi (fun i (n, u) -> m n u (mean_qor i)) qor_metrics)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)

(* Synthesis rebuilt from public calls, exactly as Cts.synthesize runs
   it under H_none at one domain, with a span around every call into a
   layer. After each merge, Maze.select is probed on the same port pair
   and Run.eval at the chosen d1/d2; the probes do not feed the merge.
   Returns (est_skew, inserted buffers, pairs per level). *)
let replay dl (cfg : Cts_config.t) sinks =
  let centroid = Sinks.centroid sinks in
  let leaf (s : Sinks.spec) =
    let offset =
      Option.value ~default:0.
        (List.assoc_opt s.Sinks.name cfg.Cts_config.sink_offsets)
    in
    Port.of_sink ~offset s
  in
  let ports = ref (List.map leaf sinks) in
  let inserted = ref 0 and pairs_per_level = ref [] in
  let level = ref 0 in
  Spans.record "replay" (fun () ->
      while List.length !ports > 1 do
        incr level;
        Spans.record (Printf.sprintf "level %d" !level) @@ fun () ->
        let items = Array.of_list !ports in
        let pairing =
          Spans.record "topology.level_pairing" (fun () ->
              Topology.level_pairing ~beta:cfg.Cts_config.topology_beta
                ~centroid
                (Array.map
                   (fun (p : Port.t) ->
                     { Topology.pos = Port.pos p; delay = p.Port.delay })
                   items))
        in
        pairs_per_level := List.length pairing.Topology.pairs :: !pairs_per_level;
        let merged =
          List.map
            (fun (i, j) ->
              let a = items.(i) and b = items.(j) in
              let port, s =
                Spans.record "merge_routing.merge" (fun () ->
                    Merge_routing.merge dl cfg a b)
              in
              inserted := !inserted + s.Merge_routing.inserted_buffers;
              let choice =
                Spans.record "maze.select" (fun () -> Maze.select dl cfg a b)
              in
              List.iter
                (fun (p, d) ->
                  ignore (Spans.record "run.eval" (fun () -> Run.eval dl cfg p d)))
                [ (a, choice.Maze.d1); (b, choice.Maze.d2) ];
              port)
            pairing.Topology.pairs
        in
        let seed =
          match pairing.Topology.seed with Some i -> [ items.(i) ] | None -> []
        in
        ports := seed @ merged
      done);
  match !ports with
  | [ root ] -> (root.Port.skew_est, !inserted, List.rev !pairs_per_level)
  | _ -> invalid_arg "replay: empty sink list"

(* Delaylib.eval_single over a fixed grid inside the characterized
   domain: ns per lookup. *)
let eval_single_probe dl =
  let grid (lo, hi) =
    Array.init 8 (fun i -> lo +. ((hi -. lo) *. (float_of_int i +. 0.5) /. 8.))
  in
  let slews = grid (Delaylib.slew_domain dl) and lens = grid (Delaylib.len_domain dl) in
  let caps = [| 5e-15; 12e-15; 25e-15; 50e-15 |] in
  let n = ref 0 and acc = ref 0. in
  let t0 = now () in
  for _ = 1 to 400 do
    List.iter
      (fun drive ->
        Array.iter
          (fun load_cap ->
            Array.iter
              (fun input_slew ->
                Array.iter
                  (fun length ->
                    let e =
                      Delaylib.eval_single dl ~drive ~load_cap ~input_slew ~length
                    in
                    acc := !acc +. e.Delaylib.wire_delay;
                    incr n)
                  lens)
              slews)
          caps)
      (Delaylib.buffers dl)
  done;
  let ns = (now () -. t0) /. float_of_int !n *. 1e9 in
  if Float.is_finite !acc then ns else invalid_arg "eval_single probe: non-finite delay"

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let pct num den = 100. *. ratio num den

let traced a =
  let w = a.workload in
  let pool2 = Parallel.create ~size:domains () in
  let pool1 = Parallel.create ~size:1 () in
  let dl, characterize_s = timed (fun () -> characterize pool2) in
  let sinks = instance w ~seed:a.seed 0 in
  let cfg = config dl w in
  let synth pool =
    Gc.full_major ();
    timed (fun () -> Cts.synthesize ~config:cfg ~pool dl sinks)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* A warm-up at 2 domains (see [untraced]); then untraced syntheses at 1
     domain, with the GC movement of that one, where all allocation
     happens on the main domain, and at 2 domains; and one at 2 domains
     with Obs on, for its counters and level spans. *)
  let res2, _ = synth pool2 in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let res1, synth1_s = timed (fun () -> Cts.synthesize ~config:cfg ~pool:pool1 dl sinks) in
  let gc1 = Gc.quick_stat () in
  let res2', synth2_s = synth pool2 in
  Obs.reset ();
  Obs.set_enabled true;
  let (res2_obs, traced_s), snap =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let r = synth pool2 in
        (r, Obs.snapshot ()))
  in
  let count c =
    Option.value ~default:0 (List.assoc_opt (Obs.counter_name c) snap.Obs.counters)
  in
  let d2 = digest res2 in
  if List.exists (fun r -> digest r <> d2) [ res1; res2'; res2_obs ] then
    fail "netlist digests differ between the 1-domain and 2-domain trees";
  (* The replay, at one domain, from public calls. *)
  let (est_skew, inserted, pairs_per_level), _ = timed (fun () -> replay dl cfg sinks) in
  if Int64.bits_of_float est_skew <> Int64.bits_of_float res1.Cts.est_skew then
    fail "replay est_skew %.17g <> Cts.synthesize %.17g" est_skew res1.Cts.est_skew;
  if inserted <> res1.Cts.inserted_buffers then
    fail "replay inserted_buffers %d <> Cts.synthesize %d" inserted
      res1.Cts.inserted_buffers;
  let eval_single_ns = eval_single_probe dl in
  (* Verification layers on the 2-domain tree. *)
  let sim, simulate_s =
    timed (fun () -> Ctree_sim.simulate Circuit.Tech.default res2.Cts.tree)
  in
  let violations, verify_s = timed (fun () -> Cts.verify_tree dl cfg res2.Cts.tree) in
  List.iter (fail "%s") (problems ~reference:None ~violations sim d2);
  Parallel.shutdown pool1;
  Parallel.shutdown pool2;
  let spans = Spans.all () in
  (try Sys.mkdir a.out_dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat a.out_dir (Printf.sprintf "spans-%s-seed%d.json" w.name a.seed)
  in
  Spans.write path
    ~header:
      (Printf.sprintf "\"workload\": %S, \"seed\": %d, \"sinks\": %d" w.name
         a.seed (List.length sinks))
    spans;
  host_facts a ~sinks;
  Printf.printf "spans written to %s\n" path;
  List.iter
    (fun (name, (n, tot, self)) ->
      if not (String.length name > 6 && String.sub name 0 6 = "level ") then
        Printf.printf "span %-24s n=%-8d total %9.3f s  self %9.3f s\n" name n
          tot self)
    (Spans.by_name spans);
  let merge_ms =
    List.filter_map
      (fun s ->
        if s.Spans.name = "merge_routing.merge" then Some (Spans.duration s *. 1e3)
        else None)
      spans
  in
  let merge_s = Spans.total "merge_routing.merge" spans in
  let select_s = Spans.total "maze.select" spans in
  let n_evals = List.length (List.filter (fun s -> s.Spans.name = "run.eval") spans) in
  (* Share of 2-domain synthesis time in levels too narrow to fill the
     pool's chunking (fewer pairs than 4 x domains). *)
  let level_time =
    List.filter_map
      (fun (s : Obs.span) ->
        Scanf.sscanf_opt s.Obs.span_name "level %d" (fun l -> (l, s.Obs.t_stop -. s.Obs.t_start)))
      snap.Obs.spans
  in
  let tail_s =
    List.fold_left
      (fun acc (l, t) ->
        match List.nth_opt pairs_per_level (l - 1) with
        | Some p when p < 4 * domains -> acc +. t
        | _ -> acc)
      0. level_time
  in
  let all_levels_s = List.fold_left (fun acc (_, t) -> acc +. t) 0. level_time in
  let mw x = x /. 1e6 in
  List.iter (Printf.eprintf "traced run failed: %s\n%!") (List.rev !failures);
  finish ~correct:(!failures = []) ~attempted:1
    ~failed:(if !failures = [] then 0 else 1)
    [
      m "delaylib.characterize_s" "s" characterize_s;
      m "delaylib.eval_single_ns" "ns" eval_single_ns;
      m "delaylib.evals_single" "count" (float_of_int (count Obs.Delay_evals_single));
      m "topology.pairing_s" "s" (Spans.total "topology.level_pairing" spans);
      m "topology.edge_costs" "count" (float_of_int (count Obs.Topology_edge_costs));
      m "merge_routing.merge_s" "s" merge_s;
      m "merge_routing.merge_ms.p50" "ms" (median merge_ms);
      m "merge_routing.merge_ms.max" "ms" (List.fold_left Float.max 0. merge_ms);
      m "merge_routing.self_s" "s" (merge_s -. select_s);
      m "merge_routing.bisection_iters" "count" (float_of_int (count Obs.Bisection_iters));
      m "merge_routing.snake_stages" "count" (float_of_int (count Obs.Snake_stages));
      m "maze.select_s" "s" select_s;
      m "maze.bins_evaluated" "count" (float_of_int (count Obs.Maze_bins_evaluated));
      m "maze.eval_cache.hit_pct" "%"
        (pct (count Obs.Eval_cache_hits)
           (count Obs.Eval_cache_hits + count Obs.Eval_cache_misses));
      m "run.evals" "count" (float_of_int (count Obs.Run_evals));
      m "run.buffers_per_eval" "count"
        (ratio (count Obs.Run_buffers_placed) (count Obs.Run_evals));
      m "run.eval_us" "us"
        (if n_evals = 0 then 0.
         else Spans.total "run.eval" spans /. float_of_int n_evals *. 1e6);
      m "run.dp.candidates" "count" (float_of_int (count Obs.Dp_candidates));
      m "run.dp.pruned_pct" "%" (pct (count Obs.Dp_pruned) (count Obs.Dp_candidates));
      m "run.dp.fallback_pct" "%" (pct (count Obs.Dp_fallbacks) (count Obs.Dp_evals));
      m "timing.stages" "count" (float_of_int (count Obs.Timing_stages));
      m "timing.analyses" "count" (float_of_int (count Obs.Timing_analyses));
      m "parallel.speedup" "x" (synth1_s /. synth2_s);
      m "cts.tail_share" "fraction"
        (if all_levels_s > 0. then tail_s /. all_levels_s else 0.);
      m "ctree_sim.simulate_s" "s" simulate_s;
      m "ctree_sim.stages" "count" (float_of_int sim.Ctree_sim.n_stages);
      m "ctree_check.verify_s" "s" verify_s;
      m "gc.synth_minor_mw" "Mw" (mw (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      m "gc.synth_major_mw" "Mw" (mw (gc1.Gc.major_words -. gc0.Gc.major_words));
      m "gc.top_heap_mw" "Mw" (mw (float_of_int gc1.Gc.top_heap_words));
      m "obs.overhead_pct" "%" (100. *. ((traced_s /. synth2_s) -. 1.));
    ]

let () =
  let a = parse_args Sys.argv in
  if a.trace then traced a else untraced a
