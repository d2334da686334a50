(** Transistor-level inverter model.

    An alpha-power-law MOSFET model (Sakurai-Newton): saturation current
    [k * (Vgs - Vt)^alpha], with a smooth quadratic linear region below
    [Vdsat = vdsat_frac * (Vgs - Vt)]. An inverter combines a pull-down
    NMOS and pull-up PMOS of the same size; this gives buffer delays that
    depend nonlinearly on input slew and waveform shape — the effects
    Chapter 3 of the paper is built around.

    The vds-independent part of a device (its saturation current, which
    costs a [pow], and its saturation voltage) depends only on the gate
    voltage. A {!drive} holds it for both devices of an inverter, so a
    simulator sets it once per timestep and then evaluates the inverter
    at as many output voltages as its Newton iterations need. The plain
    functions below build a drive and read it: there is one formula. The
    model assumes [vdsat_frac > 0].

    Domain-safety: a {!drive} is mutable scratch; use one per domain (the
    simulator makes its own per stage). No global state. *)

(** An inverter at one input voltage: the saturation current (A) and
    saturation voltage (V) of its pull-down and pull-up devices (an off
    device stores 0 for both), plus the {!stamp} at the last output
    voltage asked for. Float-only, so updating it allocates nothing. *)
type drive = {
  mutable n_isat : float;
  mutable n_vdsat : float;
  mutable p_isat : float;
  mutable p_vdsat : float;
  mutable current : float;  (** As {!inverter_current} (A). *)
  mutable conductance : float;  (** As {!inverter_conductance} (S). *)
}

val drive : Tech.t -> size:float -> vin:float -> drive
(** A fresh drive for an inverter of [size] X with input at [vin]. *)

val set_drive : Tech.t -> drive -> size:float -> vin:float -> unit
(** Overwrite a drive's device part for a new input voltage, in place. *)

val stamp : Tech.t -> drive -> vout:float -> unit
(** Set [current] and [conductance] at output voltage [vout]. *)

val nmos_current : Tech.t -> size:float -> vgs:float -> vds:float -> float
(** Drain current of a pull-down NMOS (>= 0); 0 when off or [vds <= 0]. *)

val inverter_current : Tech.t -> size:float -> vin:float -> vout:float -> float
(** Net current {e into} the inverter output node: positive = pull-up
    (PMOS) charging the node, negative = pull-down (NMOS) discharging.
    Both devices conduct in the crowbar region, as in a real inverter. *)

val inverter_conductance :
  Tech.t -> size:float -> vin:float -> vout:float -> float
(** [- d I / d Vout], the (non-negative) small-signal output conductance
    used to stamp the device semi-implicitly in the simulator. Computed
    by central finite difference. *)
