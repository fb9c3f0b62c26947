(** Ambient-energy harvester models.

    A harvester delivers current into the capacitor as a function of time
    and of the current capacitor voltage.  The models cover the paper's
    setups:

    - {!constant_power}: bench DC supply (Sections IV-A/IV-B, "+3.3V DC").
    - {!thevenin}: rectenna/solar front end with source impedance — gives
      the RC charging curve behind the capacitor-size study (Fig. 15).
    - {!square_wave}: the MSP430FR5969-based power generator that induces
      outages at 1 Hz (Section VII-B3).
    - {!scripted}: arbitrary piecewise traces ("RF power trace").
    - {!rf_ambient}: Powercast-style RF harvesting whose delivered power
      fluctuates deterministically around a mean (Section VII-B4). *)

type t

val constant_power : float -> t
(** Delivered power in watts (converted to current at the present
    capacitor voltage). *)

val thevenin : v_source:float -> r_source:float -> t
(** Current [(v_source - v) / r_source], floored at zero. *)

val square_wave : period:float -> duty:float -> t -> t
(** Gate another harvester: on for [duty * period] then off. *)

val scripted : (float * t) list -> t
(** [(duration, harvester)] segments, repeating cyclically. *)

val rf_ambient : seed:int -> mean_power:float -> flicker:float -> t
(** Mean delivered power with multiplicative deterministic fluctuation in
    [1-flicker, 1+flicker], varying every few milliseconds. *)

val none : t
(** No harvesting at all. *)

val current : t -> time:float -> v:float -> float
(** Charging current (amps) at simulation time [time] with capacitor
    voltage [v]. *)

val constant_power_watts : t -> float option
(** [Some p] when the harvester is a bare {!constant_power} source —
    the dominant bench configuration — letting a hot loop specialize
    {!current} to [p /. max v 0.5] instead of re-matching the model
    every instruction.  [None] for every other shape. *)

val thevenin_params : t -> (float * float) option
(** [Some (v_source, r_source)] when the harvester is a bare {!thevenin}
    source (the attack-rig board), letting a hot loop compute
    {!current} inline; [None] for every other shape. *)
