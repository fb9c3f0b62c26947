(** Voltage monitor — the component EMI attacks manipulate.

    Two constructions, matching Section II-C:

    - {b ADC-based}: the supply is sampled periodically and compared in
      software/firmware against V_backup / V_on references.  Trigger
      latency is bounded by the sampling period.
    - {b Comparator-based}: a continuous analog comparator raises an
      interrupt as soon as the (disturbed) input crosses the reference;
      trigger latency is the comparator propagation delay.

    The monitor does not see the true capacitor voltage: it sees
    [v_true ± disturbance], where the disturbance amplitude comes from
    {!Gecko_emi.Attack.induced_amplitude}.  While the system is on the
    monitor watches for under-voltage (backup/checkpoint signal); while it
    is off it watches for the recovery voltage (wake signal).  This
    asymmetric worst-case envelope is exactly what lets an attacker
    ping-pong the device (DoS) and wake it inside the V_fail window
    (checkpoint failure / data corruption). *)

type kind =
  | Adc of { sample_period : float }
  | Comparator of { latency : float }

type thresholds = { v_backup : float; v_on : float }

type event = Backup | Wake

type t

val create : kind -> thresholds -> t

val copy : t -> t
(** An independent monitor in the same state, sharing the event hook. *)

val kind : t -> kind
val thresholds : t -> thresholds

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** GECKO closes the attack surface by disabling the monitor; a disabled
    monitor produces no events at all. *)

val arm_backup : t -> unit
(** Watch for under-voltage (system running). *)

val arm_wake : t -> unit
(** Watch for the recovery threshold (system off / sleeping). *)

val observe : t -> time:float -> v_true:float -> disturbance:float -> event option
(** Advance the monitor to [time] and report a trigger, if any.  For the
    ADC kind, triggers only fire on sampling ticks; the comparator fires
    once its latency has elapsed since the condition first held. *)

val next_sample_time : t -> float
(** The earliest time at which {!observe} could react: the next ADC
    sampling tick ([last sample + period]); [neg_infinity] for the
    always-listening comparator kind; [infinity] while disabled.  Callers
    on a hot loop may skip {!observe} entirely before this time — every
    skipped call would have returned [None] without changing any state.
    The value is a lower bound that can only move later (sampling ticks
    and {!sync} push it forward), so a cached copy is safe until the
    monitor is re-enabled or observed again. *)

val quiescent : t -> v_min:float -> disturbance:float -> bool
(** [quiescent t ~v_min ~disturbance] is [true] when every {!observe}
    over a stretch whose true voltage stays at or above [v_min] (with
    constant [disturbance]) is guaranteed to return [None] without
    changing any state a later {!observe} or {!next_sample_time} could
    act on, so a block dispatcher may skip the per-instruction calls
    wholesale.  Only meaningful for the comparator kind — the ADC kind
    is already paced by {!next_sample_time} and always answers [false]
    here.  A caller that skips the calls counts them with {!skip}. *)

val skip : t -> int -> unit
(** [skip t n] counts [n] {!observe} calls that {!quiescent} proved
    no-ops and the caller skipped: only {!observations} moves, so the
    count is the same whether the calls were made or skipped. *)

val reset : t -> unit
(** Forget pending condition timing (used at reboot). *)

val sync : t -> time:float -> unit
(** Restart the sampling clock at [time] (ADC kind): the first sample
    after a (re)boot happens one full sampling period later. *)

(** {2 Observability}

    The monitor is the component under attack, so the trace layer wants
    to see its raw output stream, not just what the runtime did with
    it. *)

val set_on_event : t -> (time:float -> event -> unit) -> unit
(** Hook invoked on every event {!observe} reports (before the caller
    sees it).  One hook at a time; the default is a no-op. *)

val observations : t -> int
(** Total {!observe} calls over the monitor's lifetime. *)

val fires : t -> int
(** Total events reported. *)
