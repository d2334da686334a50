type drive = {
  mutable n_isat : float;
  mutable n_vdsat : float;
  mutable p_isat : float;
  mutable p_vdsat : float;
  mutable current : float;
  mutable conductance : float;
}

(* The vds-independent part of one device at gate drive [vgs]. An off
   device saturates at 0 A with vdsat = 0; an on one has vdsat > 0 (as
   vdsat_frac > 0), or NaN for a NaN gate voltage, which then propagates
   to every current. *)
let[@inline] isat (tech : Tech.t) ~size vgs =
  if vgs <= tech.vt then 0. else tech.k_per_x *. size *. ((vgs -. tech.vt) ** tech.alpha)

let[@inline] vdsat (tech : Tech.t) vgs =
  if vgs <= tech.vt then 0. else tech.vdsat_frac *. (vgs -. tech.vt)

let[@inline] nmos ~isat ~vdsat ~vds =
  if vdsat <= 0. || vds <= 0. then 0.
  else if vds >= vdsat then isat
  else
    let x = vds /. vdsat in
    isat *. x *. (2. -. x)

let nmos_current tech ~size ~vgs ~vds =
  nmos ~isat:(isat tech ~size vgs) ~vdsat:(vdsat tech vgs) ~vds

let set_drive (tech : Tech.t) d ~size ~vin =
  (* Pull-down NMOS: gate at vin. Pull-up PMOS: complementary — treated
     as an NMOS in the mirrored frame (gate drive vdd - vin). *)
  let vgs_p = tech.vdd -. vin in
  d.n_isat <- isat tech ~size vin;
  d.n_vdsat <- vdsat tech vin;
  d.p_isat <- isat tech ~size vgs_p;
  d.p_vdsat <- vdsat tech vgs_p

let drive tech ~size ~vin =
  let d =
    {
      n_isat = 0.;
      n_vdsat = 0.;
      p_isat = 0.;
      p_vdsat = 0.;
      current = 0.;
      conductance = 0.;
    }
  in
  set_drive tech d ~size ~vin;
  d

(* Source at ground and drain at vout for the NMOS; drain-source drop
   vdd - vout for the PMOS. *)
let[@inline] current_at (tech : Tech.t) d vout =
  let i_n = nmos ~isat:d.n_isat ~vdsat:d.n_vdsat ~vds:vout in
  let i_p = nmos ~isat:d.p_isat ~vdsat:d.p_vdsat ~vds:(tech.vdd -. vout) in
  i_p -. i_n

let[@inline] conductance_at tech d vout =
  let dv = 1e-4 in
  let i_hi = current_at tech d (vout +. dv) in
  let i_lo = current_at tech d (vout -. dv) in
  Float.max 0. (-.(i_hi -. i_lo) /. (2. *. dv))

let stamp tech d ~vout =
  d.current <- current_at tech d vout;
  d.conductance <- conductance_at tech d vout

let inverter_current tech ~size ~vin ~vout =
  current_at tech (drive tech ~size ~vin) vout

let inverter_conductance tech ~size ~vin ~vout =
  conductance_at tech (drive tech ~size ~vin) vout
