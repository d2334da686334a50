module W = Waveform
module Tech = Circuit.Tech
module Buffer_lib = Circuit.Buffer_lib
module Device = Circuit.Device

type driver = Vsource of W.t | Driven_buffer of Circuit.Buffer_lib.t * W.t

type config = {
  dt : float;
  t_margin : float;
  t_max : float;
  newton_iters : int;
  record_stride : int;
}

let default_config =
  {
    dt = 0.5e-12;
    t_margin = 1.5e-9;
    t_max = 40e-9;
    newton_iters = 3;
    record_stride = 1;
  }

type result = {
  vdd : float;
  recorded : (string * W.t) list;
  root : W.t;
  settled_flag : bool;
}

let g_source = 1e4 (* 0.1 mohm source impedance for Dirichlet forcing *)

(* Double every row of a sample table, keeping its first [len] columns. *)
let grow rows len =
  Array.iteri (fun r a -> rows.(r) <- Array.append a (Array.make len 0.)) rows

let simulate ?(config = default_config) (tech : Tech.t) driver tree =
  let flat = Rc_flat.of_tree tree in
  let n = flat.Rc_flat.n in
  let cap = Array.copy flat.Rc_flat.cap in
  (* The buffer's output diffusion capacitance loads the tree root. *)
  (match driver with
  | Driven_buffer (buf, _) -> cap.(0) <- cap.(0) +. Buffer_lib.output_cap tech buf
  | Vsource _ -> ());
  let input = match driver with Vsource w | Driven_buffer (_, w) -> w in
  let dt = config.dt in
  let c_dt = Array.map (fun c -> c /. dt) cap in
  (* Static part of the diagonal: C/dt + sum of incident edge
     conductances. Only the root row changes within a step, so the rest
     is eliminated once here. *)
  let diag_base = Array.copy c_dt in
  for i = 1 to n - 1 do
    diag_base.(i) <- diag_base.(i) +. flat.Rc_flat.g_edge.(i);
    let p = flat.Rc_flat.parent.(i) in
    diag_base.(p) <- diag_base.(p) +. flat.Rc_flat.g_edge.(i)
  done;
  let fz = Rc_flat.factor flat ~diag:diag_base in
  let v = Array.make n 0. in
  let rhs = Array.make n 0. in
  let kr = Array.make (Rc_flat.root_degree fz) 0. in
  let row = { Rc_flat.diag = 0.; rhs = 0. } in
  let vdd = tech.Tech.vdd in
  (* Recording: row 0 of [rows] holds the sample times, row r + 1 the
     node [rec_idx.(r)] — every tagged node plus the root. *)
  let rec_tags = Array.of_list ("__root" :: List.map fst flat.Rc_flat.tag_index) in
  let rec_idx = Array.of_list (0 :: List.map snd flat.Rc_flat.tag_index) in
  let n_rec = Array.length rec_idx in
  let rows = Array.init (n_rec + 1) (fun _ -> Array.make 1024 0.) in
  let t0 = W.t_start input in
  let t_input_end = W.t_end input in
  let t_settle_min = t0 +. (config.t_margin /. 10.) in
  (* The buffer's two inverters: stage 1 drives the internal node, which
     only sees the known input and its own capacitance; stage 2 drives
     the tree root. The Vsource driver uses neither. *)
  let size1, size2, c_dt_a =
    match driver with
    | Driven_buffer (buf, _) ->
        ( buf.Buffer_lib.stage1_size,
          buf.Buffer_lib.size,
          Buffer_lib.internal_cap tech buf /. dt )
    | Vsource _ -> (0., 0., 0.)
  in
  let d1 = Device.drive tech ~size:size1 ~vin:0. in
  let d2 = Device.drive tech ~size:size2 ~vin:0. in
  (* The source is linear: one solve per step. A buffer with no Newton
     iterations leaves the tree where it was. *)
  let tree_iters =
    match driver with Driven_buffer _ -> config.newton_iters | Vsource _ -> 1
  in
  let d0 = diag_base.(0) in
  let v_a = ref vdd in
  rows.(0).(0) <- t0;
  let len = ref 1 in
  let t = ref t0 in
  let step_count = ref 0 in
  let settled = ref false in
  while (not !settled) && !t < config.t_max do
    let t_new = !t +. dt in
    let vin = W.value_at input t_new in
    (match driver with
    | Driven_buffer _ ->
        (* Backward-Euler Newton on the internal node first. *)
        Device.set_drive tech d1 ~size:size1 ~vin;
        let va_old = !v_a in
        let va = ref va_old in
        for _ = 1 to config.newton_iters do
          Device.stamp tech d1 ~vout:!va;
          let f = (c_dt_a *. (!va -. va_old)) -. d1.Device.current in
          let fp = c_dt_a +. d1.Device.conductance in
          va := !va -. (f /. fp)
        done;
        (* Voltages stay physical. *)
        v_a := Float.max (-0.1 *. vdd) (Float.min (1.1 *. vdd) !va);
        Device.set_drive tech d2 ~size:size2 ~vin:!v_a
    | Vsource _ -> ());
    (* Only the root row carries the driver: a scalar Newton on the root
       over the once-reduced tree, then one back-substitution. *)
    if tree_iters > 0 then begin
      for i = 1 to n - 1 do
        rhs.(i) <- c_dt.(i) *. v.(i)
      done;
      Rc_flat.reduce fz ~rhs ~kr;
      let b0 = c_dt.(0) *. v.(0) in
      let vr = ref v.(0) in
      for _ = 1 to tree_iters do
        (match driver with
        | Driven_buffer _ ->
            Device.stamp tech d2 ~vout:!vr;
            let g_dev = d2.Device.conductance in
            row.Rc_flat.diag <- d0 +. g_dev;
            row.Rc_flat.rhs <- b0 +. d2.Device.current +. (g_dev *. !vr)
        | Vsource _ ->
            row.Rc_flat.diag <- d0 +. g_source;
            row.Rc_flat.rhs <- b0 +. (g_source *. vin));
        Rc_flat.eliminate_root fz ~kr row;
        vr := row.Rc_flat.rhs /. row.Rc_flat.diag
      done;
      v.(0) <- !vr;
      Rc_flat.back_substitute fz ~rhs ~into:v
    end;
    t := t_new;
    incr step_count;
    if !step_count mod config.record_stride = 0 then begin
      if !len = Array.length rows.(0) then grow rows !len;
      rows.(0).(!len) <- t_new;
      for r = 1 to n_rec do
        rows.(r).(!len) <- v.(rec_idx.(r - 1))
      done;
      incr len
    end;
    if !step_count mod 64 = 0 && t_new > t_input_end && t_new > t_settle_min
    then begin
      let ok = ref (W.value_at input t_new >= 0.99 *. vdd) in
      let i = ref 0 in
      while !ok && !i < n do
        if v.(!i) < 0.99 *. vdd then ok := false;
        incr i
      done;
      settled := !ok
    end
  done;
  let ts = Array.sub rows.(0) 0 !len in
  let waves = Array.init n_rec (fun r -> W.make ts (Array.sub rows.(r + 1) 0 !len)) in
  {
    vdd;
    recorded = List.init n_rec (fun r -> (rec_tags.(r), waves.(r)));
    root = waves.(0);
    settled_flag = !settled;
  }

let waveform r tag = List.assoc tag r.recorded
let root_waveform r = r.root
let settled r = r.settled_flag

let stage_delay r ~input ~tag =
  let w = waveform r tag in
  W.delay_50 input w ~vdd:r.vdd

let node_slew r ~tag =
  let w = waveform r tag in
  W.slew_10_90 w ~vdd:r.vdd
