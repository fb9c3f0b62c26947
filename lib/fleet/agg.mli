(** Streaming, mergeable campaign aggregates.

    One value summarizes any set of device runs; {!merge} combines two
    disjoint sets.  ({!empty}, {!merge}) is a commutative monoid —
    integer fields add exactly, float fields are exactly commutative and
    associative up to float-addition rounding — and the campaign reducer
    folds shard aggregates in fixed shard order, which makes the merged
    report byte-identical at any pool size.  {!to_json}/{!of_json}
    round-trip exactly (floats survive [%.17g] printing), which the
    campaign snapshot relies on for resume-equals-uninterrupted. *)

type t = {
  devices : int;
  attacked_devices : int;  (** Devices with at least one attack window. *)
  exposure_s : float;  (** Total scheduled attack-window seconds. *)
  instructions : int;
  completions : int;
  reboots : int;
  brownouts : int;
  jit_checkpoints : int;
  jit_checkpoint_failures : int;
  rollbacks : int;
  recovery_block_runs : int;
  detections : int;
  reenables : int;
  corruptions : int;
  io_outs : int;
  app_seconds : float;
  stalled_s : float;  (** Simulated time not spent on application work. *)
  sim_seconds : float;
  energy_drained_j : float;
  energy_sourced_j : float;
  progress : Gecko_util.Stats.Acc.t;  (** Per-device forward progress. *)
  detect_latency : Gecko_util.Stats.Acc.t;
      (** Attack onset → first detection inside the window, per window. *)
}

val empty : t
val merge : t -> t -> t

val of_device :
  schedule:Gecko_emi.Schedule.t ->
  energy_drained_j:float ->
  energy_sourced_j:float ->
  Gecko_machine.Machine.outcome ->
  t
(** Aggregate of a single device run (requires the run to have recorded
    events, for detection latencies). *)

val checkpoint_failure_rate : t -> float

val detection_latencies :
  schedule:Gecko_emi.Schedule.t -> Gecko_machine.Machine.outcome -> float list
(** Onset-to-detection latency per attack window that saw a detection
    (each detection event matched to at most one window). *)

val to_json : t -> Gecko_obs.Json.t
val of_json : Gecko_obs.Json.t -> t
(** Raises [Invalid_argument] on malformed input. *)
