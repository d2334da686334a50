module Buffer_lib = Circuit.Buffer_lib

type placed = { buf : Buffer_lib.t; dist : float }

type eval = {
  delay_below : float;
  buffers : placed list;
  top_free : float;
  top_stub_len : float;
  top_load : float;
  feasible : bool;
}

(* Spans depend only on (buffer, load class, slew target); memoize.
   The memo is an arena, not a hashed-tuple table: one arena per delay
   library (physical identity), whose cells live in one flat array
   indexed by (slew-target row, driver-name slot, load-class index) —
   a span lookup is two short array scans and one array index, with no
   tuple key allocation and no hashing.

   Concurrency: each cell carries an atomic state (empty / computing /
   ready). The ready fast path is lock-free; the miss computation runs
   OUTSIDE the global critical section — [span_mutex] only brackets the
   empty->computing and computing->ready transitions (and layout
   growth), so first-time characterization of distinct keys proceeds in
   parallel. The state machine still guarantees each key is computed
   exactly once process-wide: racing domains used to duplicate the
   (identical) computation, which was value-safe but made the Obs
   delay-library evaluation counts schedule-dependent. Exactly one
   caller takes the empty->computing transition (and counts the one
   miss); everyone else waits on [span_cond] and counts a hit — the
   same totals a sequential run reports. *)
type span_cell = {
  sc_state : int Atomic.t;  (* 0 empty, 1 computing, 2 ready *)
  mutable sc_value : float; (* meaningful once [sc_state] = 2 *)
}

(* Layouts are immutable snapshots swapped atomically: a reader always
   sees consistent (slews, names, cells) packing. Growth (a new slew
   target or a foreign driver, both rare) copies the arrays but shares
   the cell records, so values filled through any layout are visible
   through every layout. *)
type span_layout = {
  sl_slews : float array;     (* slew-target rows, append-only *)
  sl_names : string array;    (* driver-name slots, append-only *)
  sl_cells : span_cell array; (* ((slew * names) + name) * classes + class *)
}

type span_arena = {
  sa_dl : Delaylib.t;  (* identity key; never dereferenced for equality *)
  sa_classes : int;
  sa_layout : span_layout Atomic.t;
}

let span_mutex = Mutex.create ()
let span_cond = Condition.create ()
let span_arenas : span_arena list Atomic.t = Atomic.make []

let rec find_arena dl = function
  | [] -> raise Not_found
  | (a : span_arena) :: tl -> if a.sa_dl == dl then a else find_arena dl tl

(* The scans are top-level recursive functions, not local [let rec]s:
   a local recursive closure capturing the array costs ~6 minor words
   per call, which is most of what the arena saved on the hit path. *)
let rec scan_name names n i name =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else scan_name names n (i + 1) name

let idx_of_name names name = scan_name names (Array.length names) 0 name

let rec scan_slew slews n i (s : float) =
  if i >= n then -1
  else if (Array.unsafe_get slews i = s) [@cts.float_eq_ok] then i
  else scan_slew slews n (i + 1) s

(* Exact bit equality is the memo-key identity, as it was for the
   hashed tuple key before: epsilon-close but distinct slew targets are
   distinct keys. *)
let idx_of_slew slews s = scan_slew slews (Array.length slews) 0 s

let[@cts.guarded "mutex:span_mutex"] arena_for dl =
  match find_arena dl (Atomic.get span_arenas) with
  | a -> a
  | exception Not_found ->
      Mutex.lock span_mutex;
      let a =
        match find_arena dl (Atomic.get span_arenas) with
        | a -> a
        | exception Not_found ->
            let names =
              Array.of_list
                (List.map
                   (fun (b : Buffer_lib.t) -> b.Buffer_lib.name)
                   (Delaylib.buffers dl))
            in
            let a =
              {
                sa_dl = dl;
                sa_classes = Delaylib.n_classes dl;
                sa_layout =
                  Atomic.make
                    { sl_slews = [||]; sl_names = names; sl_cells = [||] };
              }
            in
            Atomic.set span_arenas (a :: Atomic.get span_arenas);
            a
      in
      Mutex.unlock span_mutex;
      a

(* Called under [span_mutex]. Extends the layout so (slew, name) exists;
   existing cells keep their (slew, name, class) coordinates because
   both axes grow append-only. *)
let[@cts.guarded "mutex:span_mutex"] grow_layout arena ~slew ~name =
  let lay = Atomic.get arena.sa_layout in
  let slews =
    if idx_of_slew lay.sl_slews slew < 0 then
      Array.append lay.sl_slews [| slew |]
    else lay.sl_slews
  in
  let names =
    if idx_of_name lay.sl_names name < 0 then
      Array.append lay.sl_names [| name |]
    else lay.sl_names
  in
  if slews != lay.sl_slews || names != lay.sl_names then begin
    let nn = Array.length names in
    let old_nn = Array.length lay.sl_names in
    let old_ns = Array.length lay.sl_slews in
    let cells =
      Array.init
        (Array.length slews * nn * arena.sa_classes)
        (fun idx ->
          let c = idx mod arena.sa_classes in
          let rest = idx / arena.sa_classes in
          let ni = rest mod nn and si = rest / nn in
          if si < old_ns && ni < old_nn then
            lay.sl_cells.((((si * old_nn) + ni) * arena.sa_classes) + c)
          else { sc_state = Atomic.make 0; sc_value = 0. })
    in
    Atomic.set arena.sa_layout { sl_slews = slews; sl_names = names; sl_cells = cells }
  end

let cell_index lay ~classes ~si ~ni ~cls =
  (((si * Array.length lay.sl_names) + ni) * classes) + cls

(* Settle one cell: wait out a concurrent computation, or claim the
   empty->computing transition and fill the cell with the lock
   released. *)
let[@cts.guarded "mutex:span_mutex"] span_fill dl (cfg : Cts_config.t) ~drive
    ~load_cap cell =
  (* Claim or wait under the lock, compute with it released. Every
     critical section is a [Mutex.protect] so a raise anywhere (the
     delay model rejects infeasible coordinates) cannot leak the
     lock. *)
  let outcome =
    Mutex.protect span_mutex (fun () ->
        let rec wait () =
          match Atomic.get cell.sc_state with
          | 2 -> `Hit cell.sc_value
          | 1 ->
              Condition.wait span_cond span_mutex;
              wait ()
          | _ ->
              Atomic.set cell.sc_state 1;
              `Claimed
        in
        wait ())
  in
  match outcome with
  | `Hit v ->
      Obs.incr Obs.Span_cache_hits;
      v
  | `Claimed ->
      Obs.incr Obs.Span_cache_misses;
      let v =
        try
          Delaylib.max_length_for_slew dl ~drive ~load_cap
            ~input_slew:cfg.slew_target ~slew_limit:cfg.slew_target
        with e ->
          (* Roll back so the key stays computable (and the next
             attempt pays a fresh miss, as the old table did). *)
          Mutex.protect span_mutex (fun () ->
              Atomic.set cell.sc_state 0;
              Condition.broadcast span_cond);
          raise e
      in
      Mutex.protect span_mutex (fun () ->
          cell.sc_value <- v;
          Atomic.set cell.sc_state 2;
          Condition.broadcast span_cond);
      v

let span_slow dl cfg ~drive ~load_cap ~cls arena =
  (* The layout lacks this (slew, name) coordinate: grow it under the
     lock, then settle the cell like any other. *)
  Mutex.lock span_mutex;
  grow_layout arena ~slew:cfg.Cts_config.slew_target
    ~name:drive.Buffer_lib.name;
  let lay = Atomic.get arena.sa_layout in
  let si = idx_of_slew lay.sl_slews cfg.Cts_config.slew_target in
  let ni = idx_of_name lay.sl_names drive.Buffer_lib.name in
  let cell = lay.sl_cells.(cell_index lay ~classes:arena.sa_classes ~si ~ni ~cls) in
  Mutex.unlock span_mutex;
  span_fill dl cfg ~drive ~load_cap cell

let span dl (cfg : Cts_config.t) ~drive ~load_cap =
  let cls = Delaylib.class_index dl load_cap in
  let arena = arena_for dl in
  let lay = Atomic.get arena.sa_layout in
  let si = idx_of_slew lay.sl_slews cfg.slew_target in
  let ni =
    if si < 0 then -1 else idx_of_name lay.sl_names drive.Buffer_lib.name
  in
  if ni >= 0 then begin
    let cell = lay.sl_cells.(cell_index lay ~classes:arena.sa_classes ~si ~ni ~cls) in
    if Atomic.get cell.sc_state = 2 then begin
      Obs.incr Obs.Span_cache_hits;
      cell.sc_value
    end
    else span_fill dl cfg ~drive ~load_cap cell
  end
  else span_slow dl cfg ~drive ~load_cap ~cls arena

(* The arenas are process-global and outlive one synthesis; tests that
   compare counter snapshots across runs reset them so both runs pay
   the same misses. *)
let[@cts.guarded "mutex:span_mutex"] reset_span_cache () =
  Mutex.lock span_mutex;
  Atomic.set span_arenas [];
  Mutex.unlock span_mutex

(* Arena-occupancy gauges, sampled at phase boundaries on the
   coordinator (Cts.synthesize level loop). Scans the cell array, so it
   stays out of the hot path by construction; the layout read is the
   same lock-free atomic load the hit path uses, and a cell counts as
   filled only in the ready state — cells mid-computation are still
   misses-in-flight. *)
let sample_span_gauges dl =
  if Obs.enabled () then begin
    match find_arena dl (Atomic.get span_arenas) with
    | exception Not_found ->
        Obs.gauge_set Obs.Span_arena_slots 0;
        Obs.gauge_set Obs.Span_arena_filled 0
    | arena ->
        let lay = Atomic.get arena.sa_layout in
        let filled = ref 0 in
        Array.iter
          (fun cell -> if Atomic.get cell.sc_state = 2 then incr filled)
          lay.sl_cells;
        Obs.gauge_set Obs.Span_arena_slots (Array.length lay.sl_cells);
        Obs.gauge_set Obs.Span_arena_filled !filled
  end

let stage_delay dl (cfg : Cts_config.t) drive ~length ~load_cap =
  Delaylib.stage_delay
    (Delaylib.fit dl ~drive ~load_cap)
    ~input_slew:cfg.slew_target ~length

let stage_step dl (cfg : Cts_config.t) drive =
  let gate = Buffer_lib.input_cap (Delaylib.tech dl) drive in
  span dl cfg ~drive ~load_cap:gate

(* Intelligent sizing (Fig. 4.4) over net spans (each type's span minus
   the stub already hanging below): among the types whose span comes
   within [prefer_small_within] of the longest, the smallest — the
   first listed on a size tie. -1 only for an empty library. *)
let choose_index (types : Buffer_lib.t array) spans ~prefer_small_within =
  let best = ref neg_infinity in
  for i = 0 to Array.length spans - 1 do
    best := Float.max !best spans.(i)
  done;
  let pick = ref (-1) in
  for i = 0 to Array.length spans - 1 do
    if
      spans.(i) >= !best -. prefer_small_within
      && (!pick < 0
         || not (types.(!pick).Buffer_lib.size <= types.(i).Buffer_lib.size))
    then pick := i
  done;
  !pick

let choose_buffer dl (cfg : Cts_config.t) ~stub_len ~load_cap =
  let types = Array.of_list (Delaylib.buffers dl) in
  let spans =
    Array.map (fun b -> span dl cfg ~drive:b ~load_cap -. stub_len) types
  in
  match
    choose_index types spans ~prefer_small_within:cfg.prefer_small_within
  with
  | -1 -> assert false
  | i -> (types.(i), spans.(i))

let[@inline] cost_better (c1 : float) (a1 : float) c2 a2 =
  match Float.compare c1 c2 with
  | 0 -> Float.compare a1 a2 < 0
  | c -> c < 0

(* --------------------------------------------------------------- *)
(* Per-port preparation.

   Everything a run evaluation reads that depends only on (library,
   config, port) — the buffer types and their caps, areas and load
   classes, every span both engines consult, the sizing pick for the
   port stub and for each type's input cap, and the delay-library fit
   handle of every (drive, load class) pair a stage or top wire can
   use — is resolved once per port, not once per probe. A maze side
   probes ~2000 lengths from one port. *)

type ctx = {
  dl : Delaylib.t;
  cfg : Cts_config.t;
  port : Port.t;
  types : Buffer_lib.t array;
  nb : int;
  caps : float array;
  areas : float array;
  ncls : int;
  cls_port : int;  (* load class of the port stub *)
  cls_of_type : int array;  (* load class of each type's input cap *)
  span_port : float array;  (* t: span of type t into the port stub *)
  span_tt : float array;  (* t * nb + t': span of type t into cap t' *)
  reach_port : float;  (* top_margin * assumed-driver span, port stub *)
  reach_cap : float array;  (* the same into each type's input cap *)
  pick_port : int;  (* sizing pick above the port stub *)
  pick_port_span : float;
  pick_cap : int array;  (* sizing pick above each type (no stub) *)
  pick_cap_span : float array;
  stage_port : Delaylib.fit array;  (* t driving the port stub *)
  stage_cap : Delaylib.fit array;  (* t * nb + t': t driving cap t' *)
  top_port : Delaylib.fit;  (* assumed driver over the port stub *)
  top_cap : Delaylib.fit array;  (* assumed driver over each type's cap *)
}

let context dl (cfg : Cts_config.t) (port : Port.t) =
  let tech = Delaylib.tech dl in
  let types = Array.of_list (Delaylib.buffers dl) in
  let nb = Array.length types in
  if nb = 0 then invalid_arg "Run: the delay library has no buffer types";
  let caps = Array.map (Buffer_lib.input_cap tech) types in
  let load_of k = if k < 0 then port.Port.stub_load else caps.(k) in
  let span_port =
    Array.map
      (fun b -> span dl cfg ~drive:b ~load_cap:port.Port.stub_load)
      types
  in
  let span_tt =
    Array.init (nb * nb) (fun k ->
        span dl cfg ~drive:types.(k / nb) ~load_cap:caps.(k mod nb))
  in
  let reach k =
    cfg.top_margin
    *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:(load_of k)
  in
  let pick spans ~stub_len =
    let net = Array.map (fun s -> s -. stub_len) spans in
    let i =
      choose_index types net ~prefer_small_within:cfg.prefer_small_within
    in
    (i, net.(i))
  in
  let pick_port, pick_port_span = pick span_port ~stub_len:port.Port.stub_len in
  let picks =
    Array.init nb (fun t' ->
        pick (Array.init nb (fun t -> span_tt.((t * nb) + t'))) ~stub_len:0.)
  in
  let fit drive k = Delaylib.fit dl ~drive ~load_cap:(load_of k) in
  {
    dl;
    cfg;
    port;
    types;
    nb;
    caps;
    areas = Array.map Buffer_lib.area_x types;
    ncls = Delaylib.n_classes dl;
    cls_port = Delaylib.class_index dl port.Port.stub_load;
    cls_of_type = Array.map (Delaylib.class_index dl) caps;
    span_port;
    span_tt;
    reach_port = reach (-1);
    reach_cap = Array.init nb reach;
    pick_port;
    pick_port_span;
    pick_cap = Array.map fst picks;
    pick_cap_span = Array.map snd picks;
    stage_port = Array.map (fun b -> fit b (-1)) types;
    stage_cap = Array.init (nb * nb) (fun k -> fit types.(k / nb) (k mod nb));
    top_port = fit cfg.assumed_driver (-1);
    top_cap = Array.init nb (fit cfg.assumed_driver);
  }

let base_eval (port : Port.t) length ~feasible =
  {
    delay_below = port.Port.delay;
    buffers = [];
    top_free = length;
    top_stub_len = length +. port.Port.stub_len;
    top_load = port.Port.stub_load;
    feasible;
  }

(* --------------------------------------------------------------- *)
(* The slew-driven greedy walk (Sec. 4.2.2).                        *)

(* A non-finite length never satisfies the top test — the walk would
   grow its chain until memory runs out — so it is reported as the
   infeasible buffer-free run instead. *)
let greedy place c length =
  Obs.incr Obs.Run_evals;
  if not (Float.is_finite length) then base_eval c.port length ~feasible:false
  else begin
    let port = c.port and nb = c.nb in
    let delay = ref port.Port.delay in
    let buffers = ref [] in
    let pos = ref 0. in
    let stub_len = ref port.Port.stub_len in
    (* Type whose input cap loads the stub; -1 for the port stub. *)
    let load = ref (-1) in
    let feasible = ref true in
    let top_reached = ref false in
    while not !top_reached do
      let remaining = length -. !pos in
      let reach = if !load < 0 then c.reach_port else c.reach_cap.(!load) in
      if !stub_len +. remaining <= reach then
        (* The rest of the run can stay unbuffered under the assumed
           upstream driver. *)
        top_reached := true
      else begin
        let t = if !load < 0 then c.pick_port else c.pick_cap.(!load) in
        let buf_span =
          if !load < 0 then c.pick_port_span else c.pick_cap_span.(!load)
        in
        let ideal = Float.max 0. (Float.min buf_span remaining) in
        if buf_span <= 0. then feasible := false;
        (* Legalize the planned position against blockages. [None] means
           no legal position exists anywhere up the rest of the path:
           stop inserting; the merge guard legalizes a buffer near the
           merge point. *)
        let target = !pos +. ideal in
        let illegal = ref false in
        let placed =
          match place with
          | None -> target
          | Some f -> (
              match f ~cur:!pos target with
              | Some l -> l
              | None ->
                  illegal := true;
                  target)
        in
        if
          !illegal
          || placed <= ((!pos +. 1.) [@cts.unit_ok])
          || placed >= ((length +. 0.5) [@cts.unit_ok])
        then begin
          (* No legal position, the stub alone violates the budget, or
             the legalized position degenerates (at/behind the previous
             buffer, or past the run top): same bail-out. *)
          feasible := false;
          top_reached := true
        end
        else begin
          let wire_above = Float.min (placed -. !pos) remaining in
          if wire_above > (1.15 *. buf_span) +. 1. then feasible := false;
          (* Stage: type t drives (wire_above + stub) into the stub
             load. *)
          let h =
            if !load < 0 then c.stage_port.(t)
            else c.stage_cap.((t * nb) + !load)
          in
          delay :=
            !delay
            +. Delaylib.stage_delay h ~input_slew:c.cfg.Cts_config.slew_target
                 ~length:(wire_above +. !stub_len);
          pos := !pos +. wire_above;
          buffers := { buf = c.types.(t); dist = !pos } :: !buffers;
          Obs.incr Obs.Run_buffers_placed;
          stub_len := 0.;
          load := t
        end
      end
    done;
    let top_free = length -. !pos in
    let top_stub_len = !stub_len +. top_free in
    let reach = if !load < 0 then c.reach_port else c.reach_cap.(!load) in
    if top_stub_len > reach then feasible := false;
    {
      delay_below = !delay;
      buffers = List.rev !buffers;
      top_free;
      top_stub_len;
      top_load = (if !load < 0 then port.Port.stub_load else c.caps.(!load));
      feasible = !feasible;
    }
  end

(* --------------------------------------------------------------- *)
(* Optimal multi-cell insertion: van Ginneken-style candidate-set DP
   with b buffer types (Li & Shi, arXiv:0710.4691).                 *)

(* The memo quantization: lengths within 0.01 um share a slot. *)
let[@inline] quantize len =
  int_of_float (Float.round ((len *. 100.) [@cts.unit_ok]))

let rec dp_chain c p (from : int array) k acc =
  let acc = { buf = c.types.(k mod c.nb); dist = p.(k / c.nb) } :: acc in
  if from.(k) < 0 then acc else dp_chain c p from from.(k) acc

(* The DP engine prepared for one port: returns the probe. Every array
   a probe touches is allocated here, sized for the most candidate
   positions the evaluator can see ([dp_grid - 1], or the caller's
   position count), and reused by every probe — a slot is live only when
   its stamp equals the current probe's, so starting a probe is one
   increment, with no clearing and no per-probe table. The arrays are
   captured by the returned closure alone, so they are private to it. *)
let dp_kernel ?positions ?place c =
  let cfg = c.cfg and port = c.port and nb = c.nb and ncls = c.ncls in
  (* The caller's positions, sorted once; else the uniform grid. *)
  let listed =
    Option.map (fun ps -> Array.of_list (List.sort Float.compare ps)) positions
  in
  let m_max =
    Int.max 0
      (match listed with Some a -> Array.length a | None -> cfg.dp_grid - 1)
  in
  let n_len_max = m_max + (m_max * (m_max - 1) / 2) in
  let stamp = ref 0 in
  (* Candidate positions, and every length the sweep can probe:
     p_i + port stub, p_i - p_j (flat i * m + j, j < i), and the top
     wires (0: length + stub; i + 1: length - p_i). *)
  let p = Array.make m_max 0. in
  let m = ref 0 in
  let port_len = Array.make m_max 0. and port_id = Array.make m_max 0 in
  let pair_len = Array.make (m_max * m_max) 0. in
  let pair_id = Array.make (m_max * m_max) 0 in
  let top_len = Array.make (m_max + 1) 0. in
  let top_id = Array.make (m_max + 1) 0 in
  (* Dense ids per probe for quantized lengths — stage lengths and top
     lengths counted apart — by open addressing at load <= 1/2. *)
  let q_cap =
    let cap = ref 16 in
    while !cap < 2 * (n_len_max + m_max + 1) do
      cap := 2 * !cap
    done;
    !cap
  in
  let q_key = Array.make q_cap 0 and q_id = Array.make q_cap 0 in
  let q_mark = Array.make q_cap 0 in
  let n_len = ref 0 and n_top = ref 0 in
  let rec q_probe key h =
    if q_mark.(h) <> !stamp then begin
      q_mark.(h) <- !stamp;
      q_key.(h) <- key;
      if key land 1 = 0 then begin
        q_id.(h) <- !n_len;
        incr n_len
      end
      else begin
        q_id.(h) <- !n_top;
        incr n_top
      end;
      q_id.(h)
    end
    else if q_key.(h) = key then q_id.(h)
    else q_probe key ((h + 1) land (q_cap - 1))
  in
  let len_id ~top lens k =
    let key = (2 * quantize lens.(k)) + if top then 1 else 0 in
    let h = key * 0x9E3779B1 in
    q_probe key ((h lxor (h lsr 17)) land (q_cap - 1))
  in
  (* Stage- and top-wire-delay memos keyed (len id, type, class) and
     (top id, class); [fills] feeds the memo gauges. *)
  let sd_val, sd_fill = Delaylib.stage_delay_table (n_len_max * nb * ncls) in
  let sd_stamp = Array.make (n_len_max * nb * ncls) 0 in
  let top_val, top_fill = Delaylib.wire_delay_table ((m_max + 1) * ncls) in
  let top_stamp = Array.make ((m_max + 1) * ncls) 0 in
  let fills = ref 0 in
  (* Best state per (position, type), flat i * nb + t: cost (delay plus
     the area term), pure delay, area, and the state below
     (i' * nb + t', or -1 for the port). *)
  let st_stamp = Array.make (m_max * nb) 0 in
  let st_cost = Array.make (m_max * nb) 0. in
  let st_delay = Array.make (m_max * nb) 0. in
  let st_area = Array.make (m_max * nb) 0. in
  let st_from = Array.make (m_max * nb) 0 in
  (* Position i's front, the types at i * nb .. i * nb + front_len i - 1:
     the Li–Shi sorted candidate list — the best state per load class
     (a state whose class and cost are both no better than another's is
     inferior and never consulted again), sorted by input cap. Future
     stage delay and span depend on the source state only through its
     load class, so the prune is exact. *)
  let front = Array.make (m_max * nb) 0 and front_len = Array.make m_max 0 in
  (* Candidate filter, for the position staged at p.(m): kept only
     strictly above the previous kept one (by more than 1 um) and more
     than 0.5 um below the run top, before and after legalization — the
     greedy engine's bail-out conditions. *)
  let admit length =
    let prev = if !m = 0 then 0. else p.(!m - 1) in
    let d = p.(!m) in
    if
      not
        (d <= ((prev +. 1.) [@cts.unit_ok])
        || d >= ((length -. 0.5) [@cts.unit_ok]))
    then
      match place with
      | None -> incr m
      | Some f -> (
          match f ~cur:prev d with
          | Some l
            when not
                   (l <= ((prev +. 1.) [@cts.unit_ok])
                   || l >= ((length -. 0.5) [@cts.unit_ok])) ->
              p.(!m) <- l;
              incr m
          | Some _ | None -> ())
  in
  (* The entry order matters: a relaxation keeps the first of equally
     cheap states, so fronts are built in one fixed order — types
     visited from the last, a class's incumbent replaced in place, a new
     class prepended — then stably sorted by cap. *)
  let build_front i =
    let base = i * nb in
    let len = ref 0 in
    for t = nb - 1 downto 0 do
      let k = base + t in
      if st_stamp.(k) = !stamp then begin
        Obs.incr Obs.Dp_candidates;
        let same = ref (-1) in
        for e = 0 to !len - 1 do
          if c.cls_of_type.(front.(base + e)) = c.cls_of_type.(t) then same := e
        done;
        if !same >= 0 then begin
          Obs.incr Obs.Dp_pruned;
          let k' = base + front.(base + !same) in
          if cost_better st_cost.(k) st_area.(k) st_cost.(k') st_area.(k') then
            front.(base + !same) <- t
        end
        else begin
          Array.blit front base front (base + 1) !len;
          front.(base) <- t;
          incr len
        end
      end
    done;
    for e = 1 to !len - 1 do
      let x = front.(base + e) in
      let q = ref e in
      while
        !q > 0 && Float.compare c.caps.(front.(base + !q - 1)) c.caps.(x) > 0
      do
        front.(base + !q) <- front.(base + !q - 1);
        decr q
      done;
      front.(base + !q) <- x
    done;
    front_len.(i) <- !len
  in
  let stage_slot h lens k ~id ~t ~cls =
    let slot = (((id * nb) + t) * ncls) + cls in
    if sd_stamp.(slot) <> !stamp then begin
      sd_fill h ~input_slew:cfg.Cts_config.slew_target lens k slot;
      sd_stamp.(slot) <- !stamp;
      incr fills
    end;
    slot
  in
  let top_slot k ~cls h =
    let slot = (top_id.(k) * ncls) + cls in
    if top_stamp.(slot) <> !stamp then begin
      top_fill h ~input_slew:cfg.Cts_config.slew_target top_len k slot;
      top_stamp.(slot) <- !stamp;
      incr fills
    end;
    slot
  in
  fun length ->
    Obs.incr Obs.Dp_evals;
    if not (Float.is_finite length) then base_eval port length ~feasible:false
    else begin
      incr stamp;
      (* Candidate positions: a uniform [dp_grid] grid (or the caller's
         list), legalized one by one and kept strictly increasing. *)
      m := 0;
      (match listed with
      | None ->
          let n = cfg.dp_grid in
          for k = 0 to n - 2 do
            p.(!m) <- float_of_int (k + 1) *. length /. float_of_int n;
            admit length
          done
      | Some a ->
          Array.iter
            (fun d ->
              p.(!m) <- d;
              admit length)
            a);
      let m = !m in
      n_len := 0;
      n_top := 0;
      for i = 0 to m - 1 do
        port_len.(i) <- p.(i) +. port.Port.stub_len;
        port_id.(i) <- len_id ~top:false port_len i
      done;
      for i = 1 to m - 1 do
        for j = 0 to i - 1 do
          let idx = (i * m) + j in
          pair_len.(idx) <- p.(i) -. p.(j);
          pair_id.(idx) <- len_id ~top:false pair_len idx
        done
      done;
      top_len.(0) <- length +. port.Port.stub_len;
      for i = 0 to m - 1 do
        top_len.(i + 1) <- length -. p.(i)
      done;
      for k = 0 to m do
        top_id.(k) <- len_id ~top:true top_len k
      done;
      fills := 0;
      let w = cfg.dp_area_weight in
      for i = 0 to m - 1 do
        for t = 0 to nb - 1 do
          let k = (i * nb) + t in
          (* From the port itself: the stage swallows the port stub. *)
          if port_len.(i) <= c.span_port.(t) then begin
            let slot =
              stage_slot c.stage_port.(t) port_len i ~id:port_id.(i) ~t
                ~cls:c.cls_port
            in
            let cost = port.Port.delay +. sd_val.(slot) +. (w *. c.areas.(t)) in
            if
              st_stamp.(k) <> !stamp
              || cost_better cost c.areas.(t) st_cost.(k) st_area.(k)
            then begin
              st_stamp.(k) <- !stamp;
              st_cost.(k) <- cost;
              st_delay.(k) <- port.Port.delay +. sd_val.(slot);
              st_area.(k) <- c.areas.(t);
              st_from.(k) <- -1
            end
          end;
          (* From every earlier position's front. *)
          for j = 0 to i - 1 do
            let idx = (i * m) + j in
            for e = 0 to front_len.(j) - 1 do
              let t' = front.((j * nb) + e) in
              if pair_len.(idx) <= c.span_tt.((t * nb) + t') then begin
                let slot =
                  stage_slot c.stage_cap.((t * nb) + t') pair_len idx
                    ~id:pair_id.(idx) ~t ~cls:c.cls_of_type.(t')
                in
                let s = (j * nb) + t' in
                let cost = st_cost.(s) +. sd_val.(slot) +. (w *. c.areas.(t)) in
                let area = st_area.(s) +. c.areas.(t) in
                if
                  st_stamp.(k) <> !stamp
                  || cost_better cost area st_cost.(k) st_area.(k)
                then begin
                  st_stamp.(k) <- !stamp;
                  st_cost.(k) <- cost;
                  st_delay.(k) <- st_delay.(s) +. sd_val.(slot);
                  st_area.(k) <- area;
                  st_from.(k) <- s
                end
              end
            done
          done
        done;
        build_front i
      done;
      (* Finalize: every state, and the buffer-free base, tops out with
         the remaining wire under the assumed upstream driver — the
         greedy engine's convention and feasibility check. Feasible
         beats infeasible, then lower (cost, area); the base is the
         incumbent. *)
      let slot = top_slot 0 ~cls:c.cls_port c.top_port in
      let best_ok = ref (top_len.(0) <= c.reach_port) in
      let best_cost = ref (port.Port.delay +. top_val.(slot)) in
      let best_area = ref 0. in
      let best = ref (-1) in
      for i = 0 to m - 1 do
        for t = 0 to nb - 1 do
          let k = (i * nb) + t in
          if st_stamp.(k) = !stamp then begin
            let ok = top_len.(i + 1) <= c.reach_cap.(t) in
            let slot = top_slot (i + 1) ~cls:c.cls_of_type.(t) c.top_cap.(t) in
            let cost = st_cost.(k) +. top_val.(slot) in
            if
              (ok && not !best_ok)
              || ((not (!best_ok && not ok))
                 && cost_better cost st_area.(k) !best_cost !best_area)
            then begin
              best_ok := ok;
              best_cost := cost;
              best_area := st_area.(k);
              best := k
            end
          end
        done
      done;
      (* Memo-effectiveness gauges: slots this probe's two memos span
         vs. slots it filled. Additive across probes (and absorbed from
         task deltas in task-index order), so the totals are
         schedule-independent. *)
      if Obs.enabled () then begin
        Obs.gauge_add Obs.Dp_memo_slots
          (Int.max 1 (!n_len * nb * ncls) + Int.max 1 (!n_top * ncls));
        Obs.gauge_add Obs.Dp_memo_filled !fills
      end;
      if !best < 0 then base_eval port length ~feasible:!best_ok
      else begin
        let k = !best in
        let top = length -. p.(k / nb) in
        {
          delay_below = st_delay.(k);
          buffers = dp_chain c p st_from k [];
          top_free = top;
          top_stub_len = top;
          top_load = c.caps.(k mod nb);
          feasible = !best_ok;
        }
      end
    end

(* --------------------------------------------------------------- *)
(* The run cost both engines are compared on.                       *)

let area_of_eval (e : eval) =
  List.fold_left
    (fun a (p : placed) -> a +. Buffer_lib.area_x p.buf)
    0. e.buffers

(* Assumed-driver handle over an eval's top load: the port stub when
   no buffer was planted, else the topmost type's input cap (matched by
   value; equal caps share a class, hence a handle). *)
let top_fit c (e : eval) =
  if e.buffers = [] then c.top_port
  else begin
    let k = ref (-1) in
    for t = c.nb - 1 downto 0 do
      if (c.caps.(t) = e.top_load) [@cts.float_eq_ok] then k := t
    done;
    if !k >= 0 then c.top_cap.(!k)
    else Delaylib.fit c.dl ~drive:c.cfg.assumed_driver ~load_cap:e.top_load
  end

let cost_with ~top_wire (cfg : Cts_config.t) (e : eval) =
  let area = area_of_eval e in
  (e.delay_below +. top_wire +. (cfg.dp_area_weight *. area), area)

let run_cost dl (cfg : Cts_config.t) (e : eval) =
  let h = Delaylib.fit dl ~drive:cfg.assumed_driver ~load_cap:e.top_load in
  cost_with cfg e
    ~top_wire:
      (Delaylib.wire_delay h ~input_slew:cfg.slew_target ~length:e.top_stub_len)

let prepared_cost c e =
  cost_with c.cfg e
    ~top_wire:
      (Delaylib.wire_delay (top_fit c e) ~input_slew:c.cfg.slew_target
         ~length:e.top_stub_len)

(* --------------------------------------------------------------- *)
(* Entry points: one prepared path.                                  *)

let prepare_dp ?positions ?place dl cfg port =
  dp_kernel ?positions ?place (context dl cfg port)

(* Under [Optimal_dp] the greedy solution is kept as an incumbent — the
   DP returns whichever of the two costs less under [run_cost], so the
   DP engine is never worse than greedy on the shared objective (the
   property test/t_insertion.ml locks), and blockage-heavy runs where
   the discretized DP goes infeasible degrade to the proven greedy
   behavior. *)
let prepare ?place dl (cfg : Cts_config.t) port =
  let c = context dl cfg port in
  match cfg.insertion with
  | Cts_config.Greedy -> fun length -> greedy place c length
  | Cts_config.Optimal_dp ->
      let dp = dp_kernel ?place c in
      fun length ->
        let g = greedy place c length in
        let d = dp length in
        let pick_greedy =
          if g.feasible && not d.feasible then true
          else if d.feasible && not g.feasible then false
          else begin
            let gc, ga = prepared_cost c g in
            let dc, da = prepared_cost c d in
            cost_better gc ga dc da
          end
        in
        if pick_greedy then begin
          Obs.incr Obs.Dp_fallbacks;
          g
        end
        else d

let eval ?place dl cfg port length = prepare ?place dl cfg port length

let eval_greedy ?place dl cfg port length =
  greedy place (context dl cfg port) length

let eval_dp ?positions ?place dl cfg port length =
  prepare_dp ?positions ?place dl cfg port length

let prepare_top dl (cfg : Cts_config.t) port =
  let c = context dl cfg port in
  fun (e : eval) top_wire ->
    let length = top_wire +. (e.top_stub_len -. e.top_free) in
    e.delay_below
    +. Delaylib.wire_delay (top_fit c e) ~input_slew:cfg.slew_target ~length
