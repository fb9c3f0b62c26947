(** Energy-buffer capacitor.

    The capacitor is the single energy store of an intermittent system
    (Fig. 1 of the paper).  Stored energy is E = ½·C·V²; the MCU drains
    energy per cycle, the harvester sources current.  Voltage is clamped to
    [0, v_max]. *)

type t = {
  capacitance : float;
  v_max : float;
  mutable voltage : float;
  mutable drained_total : float;
  mutable sourced_total : float;
}
(** The representation is exposed for the machine's block dispatcher,
    which inlines {!drain}/{!source_current} into its per-instruction
    loop (an all-float record keeps those float writes allocation-free,
    and without cross-module inlining the calls would dominate).  Treat
    the fields as read-only everywhere else: mutate through {!drain},
    {!source_current} and {!set_voltage}. *)

val create : capacitance:float -> v_max:float -> v_init:float -> t
(** [capacitance] in farads, voltages in volts. *)

val copy : t -> t
(** An independent capacitor in the same state. *)

val capacitance : t -> float
val voltage : t -> float
val v_max : t -> float

val energy : t -> float
(** Stored energy in joules. *)

val set_voltage : t -> float -> unit

val drain : t -> float -> float
(** [drain t joules] removes up to [joules]; returns the energy actually
    removed (less if the capacitor empties). *)

val source_current : t -> amps:float -> dt:float -> unit
(** Integrate a charging current over [dt] seconds. *)

val energy_drained_total : t -> float
(** Cumulative joules removed by {!drain} over the capacitor's lifetime
    (observability: the simulator exports this as a metric). *)

val energy_sourced_total : t -> float
(** Cumulative joules actually banked by {!source_current} (net of the
    [v_max] clamp). *)

val stored_energy_at : capacitance:float -> float -> float
(** [stored_energy_at ~capacitance v] is the stored energy at voltage
    [v], with the exact float expression of {!energy}.  Rounding is
    monotone, so comparing energies computed this way agrees with
    comparing the underlying voltages — the block dispatcher uses it to
    prove a whole batch of drains cannot cross the brownout threshold. *)

val charge_time_rc :
  capacitance:float -> v_source:float -> r_source:float -> v_from:float -> v_to:float -> float
(** Analytic RC charge time from [v_from] to [v_to] through [r_source] from
    a Thévenin source at [v_source].  Infinite if [v_to >= v_source]. *)
