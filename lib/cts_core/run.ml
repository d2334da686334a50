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

(* --------------------------------------------------------------- *)
(* The run context.

   Everything a run evaluation reads that depends only on (library,
   config) is resolved once per synthesis: the buffer types and their
   caps, areas and load classes; the span table — the longest wire each
   driver (every library type, then the assumed driver when it is not
   one) can put before each load class within the slew target; the
   delay-library fit handle of every (driver, load class) pair; and the
   sizing pick above each class. A span is a pure function of (driver,
   load class, slew target) — the delay library keys its fits by class —
   so the table holds exactly what a memo over queries would. The record
   is immutable: every domain of the pool reads it unsynchronized. *)

type ctx = {
  dl : Delaylib.t;
  cfg : Cts_config.t;
  types : Buffer_lib.t array;
  nb : int;
  caps : float array;
  areas : float array;
  ncls : int;
  cls_of_type : int array;  (* load class of each type's input cap *)
  drivers : Buffer_lib.t array;  (* table rows: the types, [+ assumed] *)
  assumed : int;  (* row of the assumed driver *)
  spans : float array;  (* row * ncls + class *)
  fits : Delaylib.fit array;  (* row * ncls + class *)
  reach : float array;  (* class: top_margin * assumed-driver span *)
  pick : int array;  (* class: sizing pick above an empty stub *)
  pick_span : float array;
}

(* Top-level rather than a local [let rec]: a local recursive closure
   would allocate on every span lookup. *)
let rec row_of (drivers : Buffer_lib.t array) name i =
  if i >= Array.length drivers then
    invalid_arg ("Run: drive buffer " ^ name ^ " is not characterized")
  else if String.equal drivers.(i).Buffer_lib.name name then i
  else row_of drivers name (i + 1)

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

(* The sizing pick above a load of class [cls] under a [stub_len] stub,
   and its net span. *)
let choose_in ~types ~spans ~ncls ~prefer_small_within ~stub_len cls =
  let net =
    Array.init (Array.length types) (fun t ->
        spans.((t * ncls) + cls) -. stub_len)
  in
  let i = choose_index types net ~prefer_small_within in
  (i, net.(i))

let context dl (cfg : Cts_config.t) =
  let tech = Delaylib.tech dl in
  let types = Array.of_list (Delaylib.buffers dl) in
  let nb = Array.length types in
  if nb = 0 then invalid_arg "Run: the delay library has no buffer types";
  let assumed_name = cfg.assumed_driver.Buffer_lib.name in
  let is_assumed (b : Buffer_lib.t) = String.equal b.name assumed_name in
  let drivers =
    if Array.exists is_assumed types then types
    else Array.append types [| cfg.assumed_driver |]
  in
  let ncls = Delaylib.n_classes dl in
  let table f =
    Array.init (Array.length drivers * ncls) (fun k ->
        f drivers.(k / ncls) (Delaylib.class_cap dl (k mod ncls)))
  in
  let spans =
    table (fun drive load_cap ->
        Delaylib.max_length_for_slew dl ~drive ~load_cap
          ~input_slew:cfg.slew_target ~slew_limit:cfg.slew_target)
  in
  let assumed = row_of drivers assumed_name 0 in
  let picks =
    Array.init ncls
      (choose_in ~types ~spans ~ncls
         ~prefer_small_within:cfg.prefer_small_within ~stub_len:0.)
  in
  let caps = Array.map (Buffer_lib.input_cap tech) types in
  {
    dl;
    cfg;
    types;
    nb;
    caps;
    areas = Array.map Buffer_lib.area_x types;
    ncls;
    cls_of_type = Array.map (Delaylib.class_index dl) caps;
    drivers;
    assumed;
    spans;
    fits = table (fun drive load_cap -> Delaylib.fit dl ~drive ~load_cap);
    reach =
      Array.init ncls (fun k -> cfg.top_margin *. spans.((assumed * ncls) + k));
    pick = Array.map fst picks;
    pick_span = Array.map snd picks;
  }

let library c = c.dl
let config c = c.cfg

(* Table index of ([drive], class of [load_cap]). *)
let cell c (drive : Buffer_lib.t) load_cap =
  (row_of c.drivers drive.name 0 * c.ncls) + Delaylib.class_index c.dl load_cap

let span c ~drive ~load_cap = c.spans.(cell c drive load_cap)

let stage_delay c drive ~length ~load_cap =
  Delaylib.stage_delay c.fits.(cell c drive load_cap)
    ~input_slew:c.cfg.slew_target ~length

let choose c ~stub_len cls =
  choose_in ~types:c.types ~spans:c.spans ~ncls:c.ncls
    ~prefer_small_within:c.cfg.prefer_small_within ~stub_len cls

let choose_buffer c ~stub_len ~load_cap =
  let i, s = choose c ~stub_len (Delaylib.class_index c.dl load_cap) in
  (c.types.(i), s)

let[@inline] cost_better (c1 : float) (a1 : float) c2 a2 =
  match Float.compare c1 c2 with
  | 0 -> Float.compare a1 a2 < 0
  | c -> c < 0

(* --------------------------------------------------------------- *)
(* Per-port preparation: what a run from one port reads beyond the
   context — the port stub's load class and the sizing pick above the
   stub. A maze side probes ~2000 lengths from one port. *)

type side = {
  c : ctx;
  port : Port.t;
  cls_port : int;
  pick_port : int;
  pick_port_span : float;
}

let side c (port : Port.t) =
  let cls_port = Delaylib.class_index c.dl port.Port.stub_load in
  let pick_port, pick_port_span =
    choose c ~stub_len:port.Port.stub_len cls_port
  in
  { c; port; cls_port; pick_port; pick_port_span }

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
let greedy place s length =
  Obs.incr Obs.Run_evals;
  if not (Float.is_finite length) then base_eval s.port length ~feasible:false
  else begin
    let c = s.c and port = s.port in
    let delay = ref port.Port.delay in
    let buffers = ref [] in
    let pos = ref 0. in
    let stub_len = ref port.Port.stub_len in
    (* Type whose input cap loads the stub (-1 for the port stub), and
       that load's class. *)
    let load = ref (-1) and cls = ref s.cls_port in
    let feasible = ref true in
    let top_reached = ref false in
    while not !top_reached do
      let remaining = length -. !pos in
      if !stub_len +. remaining <= c.reach.(!cls) then
        (* The rest of the run can stay unbuffered under the assumed
           upstream driver. *)
        top_reached := true
      else begin
        let t = if !load < 0 then s.pick_port else c.pick.(!cls) in
        let buf_span =
          if !load < 0 then s.pick_port_span else c.pick_span.(!cls)
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
          delay :=
            !delay
            +. Delaylib.stage_delay
                 c.fits.((t * c.ncls) + !cls)
                 ~input_slew:c.cfg.Cts_config.slew_target
                 ~length:(wire_above +. !stub_len);
          pos := !pos +. wire_above;
          buffers := { buf = c.types.(t); dist = !pos } :: !buffers;
          Obs.incr Obs.Run_buffers_placed;
          stub_len := 0.;
          load := t;
          cls := c.cls_of_type.(t)
        end
      end
    done;
    let top_free = length -. !pos in
    let top_stub_len = !stub_len +. top_free in
    if top_stub_len > c.reach.(!cls) then feasible := false;
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
let dp_kernel ?positions ?place s =
  let c = s.c and port = s.port and cls_port = s.cls_port in
  let cfg = c.cfg and nb = c.nb and ncls = c.ncls in
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
          if port_len.(i) <= c.spans.((t * ncls) + cls_port) then begin
            let slot =
              stage_slot c.fits.((t * ncls) + cls_port) port_len i
                ~id:port_id.(i) ~t ~cls:cls_port
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
              let cls = c.cls_of_type.(t') in
              if pair_len.(idx) <= c.spans.((t * ncls) + cls) then begin
                let slot =
                  stage_slot c.fits.((t * ncls) + cls) pair_len idx
                    ~id:pair_id.(idx) ~t ~cls
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
      let top_row = c.assumed * ncls in
      let slot = top_slot 0 ~cls:cls_port c.fits.(top_row + cls_port) in
      let best_ok = ref (top_len.(0) <= c.reach.(cls_port)) in
      let best_cost = ref (port.Port.delay +. top_val.(slot)) in
      let best_area = ref 0. in
      let best = ref (-1) in
      for i = 0 to m - 1 do
        for t = 0 to nb - 1 do
          let k = (i * nb) + t in
          if st_stamp.(k) = !stamp then begin
            let cls = c.cls_of_type.(t) in
            let ok = top_len.(i + 1) <= c.reach.(cls) in
            let slot = top_slot (i + 1) ~cls c.fits.(top_row + cls) in
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

(* Load class of an eval's top load: the topmost type's input cap
   (matched by value; equal caps share a class), else the port stub's
   class — known to a prepared side, searched for otherwise. *)
let top_class c ~port_cls (e : eval) =
  let k = ref (-1) in
  for t = c.nb - 1 downto 0 do
    if (c.caps.(t) = e.top_load) [@cts.float_eq_ok] then k := t
  done;
  if !k >= 0 then c.cls_of_type.(!k)
  else if port_cls >= 0 then port_cls
  else Delaylib.class_index c.dl e.top_load

let top_wire_delay c ~port_cls (e : eval) ~length =
  Delaylib.wire_delay
    c.fits.((c.assumed * c.ncls) + top_class c ~port_cls e)
    ~input_slew:c.cfg.slew_target ~length

let cost_with c ~port_cls (e : eval) =
  let area = area_of_eval e in
  ( e.delay_below
    +. top_wire_delay c ~port_cls e ~length:e.top_stub_len
    +. (c.cfg.dp_area_weight *. area),
    area )

let run_cost c e = cost_with c ~port_cls:(-1) e

let top_delay c (e : eval) top_wire =
  e.delay_below
  +. top_wire_delay c ~port_cls:(-1) e
       ~length:(top_wire +. (e.top_stub_len -. e.top_free))

(* --------------------------------------------------------------- *)
(* Entry points: one prepared path.                                  *)

let prepare_dp ?positions ?place c port =
  dp_kernel ?positions ?place (side c port)

(* Under [Optimal_dp] the greedy solution is kept as an incumbent — the
   DP returns whichever of the two costs less under [run_cost], so the
   DP engine is never worse than greedy on the shared objective (the
   property test/t_insertion.ml locks), and blockage-heavy runs where
   the discretized DP goes infeasible degrade to the proven greedy
   behavior. *)
let prepare ?place c port =
  let s = side c port in
  match c.cfg.insertion with
  | Cts_config.Greedy -> fun length -> greedy place s length
  | Cts_config.Optimal_dp ->
      let dp = dp_kernel ?place s in
      fun length ->
        let g = greedy place s length in
        let d = dp length in
        let pick_greedy =
          if g.feasible && not d.feasible then true
          else if d.feasible && not g.feasible then false
          else begin
            let gc, ga = cost_with c ~port_cls:s.cls_port g in
            let dc, da = cost_with c ~port_cls:s.cls_port d in
            cost_better gc ga dc da
          end
        in
        if pick_greedy then begin
          Obs.incr Obs.Dp_fallbacks;
          g
        end
        else d

let eval ?place dl cfg port length = prepare ?place (context dl cfg) port length

let eval_greedy ?place dl cfg port length =
  greedy place (side (context dl cfg) port) length

let eval_dp ?positions ?place dl cfg port length =
  prepare_dp ?positions ?place (context dl cfg) port length
