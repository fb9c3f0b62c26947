(** Sharded execution of a fleet campaign, with checkpoint/resume.

    The spec elaborates into per-device assignments (one RNG stream per
    device, split from the campaign seed) and one shared {!Field}.
    Devices partition into shards of [spec.shard_size]; each shard runs
    its devices one at a time in id order, each from its shared
    unattacked prefix (see {!Shard.prefix}), streaming each finished
    device into the shard accumulator (see {!Shard.acc}; no per-device
    list is ever materialized), and shards fan out over the shared
    {!Gecko_harness.Workbench} pool in fixed-size waves.  Compilation
    goes through the Workbench's process-wide compile cache, so each
    workload×scheme pair compiles once per process — not once per
    device.

    Reduction folds shard results in shard-id order, so the merged report
    is byte-identical for any [--jobs] and any shard size.  After every
    wave the completed shard results are written to a versioned
    [gecko.fleet/1] snapshot (write-then-rename); a later invocation with the same spec resumes from it, re-running only the
    missing shards, and produces the byte-identical report an
    uninterrupted campaign would have — the fleet simulator itself
    behaves like an intermittent system. *)

type device = Shard.device = {
  id : int;
  workload : string;
  scheme : Gecko_core.Scheme.t;
  board : Spec.board_kind;
  x : float;
  y : float;
  seed : int;
}

val elaborate : Spec.t -> device array * Field.t
(** Deterministic: depends only on the spec. *)

val run_device :
  ?telemetry:Telemetry.config ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option
(** Simulate one device under its local attack schedule; returns its
    aggregate, its run-metrics registry and — when [telemetry] is given
    — its single-device telemetry (the device carries a flight recorder
    for the run; the dump rides in its outlier record if it scores as
    one). *)

type shard_result = Shard.t = {
  sr_id : int;
  sr_agg : Agg.t;
  sr_per_scheme : (string * Agg.t) list;
  sr_per_workload : (string * Agg.t) list;
  sr_metrics : Gecko_obs.Json.t;
      (** Shard metrics registry, [Metrics.to_persist] form. *)
  sr_telemetry : Telemetry.t option;
      (** Present when the campaign ran with telemetry; persisted in the
          snapshot so a resumed campaign keeps its outliers. *)
}

val run_shard :
  ?telemetry:Telemetry.config ->
  ?prefix:Shard.prefix ->
  spec:Spec.t ->
  field:Field.t ->
  devices:device array ->
  int ->
  shard_result
(** Run one shard; [devices] is the full elaborated array, the shard
    slice is cut here.  Devices start from their [prefix] entries (see
    {!Shard.prefix}) when given, else from power-on; the result is the
    same. *)

val shard_to_json : shard_result -> Gecko_obs.Json.t
val shard_of_json : Gecko_obs.Json.t -> shard_result
(** Exact round-trip; raises [Invalid_argument] on malformed input. *)

(** {2 Snapshots} *)

val snapshot_schema : string
(** ["gecko.fleet/1"]. *)

val snapshot_json : Spec.t -> shard_result list -> Gecko_obs.Json.t

val parse_snapshot : string -> Spec.t * shard_result list
(** Validates the schema, the spec and shard-id sanity (in-range, no
    duplicates).  Raises [Invalid_argument] on any violation. *)

val load_snapshot : string -> Spec.t * shard_result list
(** {!parse_snapshot} of a file's contents.  Raises [Sys_error] on IO
    failure. *)

val report_of_shards : Spec.t -> shard_result list -> Report.t
(** Merge in shard-id order (the one true reduction). *)

(** {2 Running} *)

type result = {
  report : Report.t option;
      (** [None] when [max_shards] stopped the campaign early. *)
  completed_shards : int;
  total_shards : int;
  resumed_shards : int;  (** Shards taken from the snapshot, not re-run. *)
  devices_run : int;  (** Devices simulated by this invocation. *)
  instructions_run : int;
      (** Simulated instructions retired by this invocation's devices:
          the sum of their outcomes, shared prefixes counted once per
          device. *)
  stepped_instructions : int;
      (** Instructions the host actually interpreted: each shared prefix
          reference once, plus every device's tail after its fork (feeds
          [gecko fleet]'s sim instr/s). *)
  telemetry : Telemetry.t option;
      (** Campaign-wide telemetry, merged in shard-id order; present
          when the campaign ran with telemetry. *)
}

val run :
  ?snapshot_path:string ->
  ?resume:Spec.t * shard_result list ->
  ?max_shards:int ->
  ?telemetry:Telemetry.config ->
  Spec.t ->
  result
(** Run (or continue) a campaign.  The devices of the shards this
    invocation runs share one {!Shard.prefix} table, released when [run]
    returns; results do not depend on it.  [snapshot_path] enables
    per-wave checkpointing; [resume] supplies a loaded snapshot whose
    spec must equal the requested one (raises [Invalid_argument] otherwise);
    [max_shards] bounds how many new shards this
    invocation runs (for controlled interruption).  Pool width comes
    from {!Gecko_harness.Workbench.jobs}; results do not depend on it.

    [telemetry] arms the observability layer: every device carries a
    {!Gecko_obs.Flight} recorder, every shard folds a {!Telemetry.t},
    and — when [tel_path] is set — the campaign streams
    [gecko.fleet-telemetry/2] JSONL: a header record (its [config] holds
    [top_k]), one record per completed shard ([{"shard"; "resumed";
    "agg"; "telemetry"; "cumulative"}], resumed shards first; [agg] is
    the shard's {!Agg.to_json}, [cumulative] the running one), a
    [{"final"; "total"}] record with the shard-id-order merges of the
    telemetry and of the aggregates ([total] equals the report's), and a
    last [{"nondeterministic": {"wall_seconds"; "devices_per_sec";
    "jobs"}}] record quarantining every wall-clock-derived field.  All
    other records are sim-derived and byte-identical at any pool width.
    [tel_progress] additionally writes a live progress line (devices/s,
    ETA, the running corruption and checkpoint-failure counts) to
    stderr. *)

val prefix_share : result -> float
(** The share of the devices' instructions served from shared prefixes
    rather than interpreted again: [1 - stepped_instructions /
    instructions_run] ([0.] when nothing ran), counting what the
    devices' forks actually inherited.  In [\[0, 1)]: every prefix a
    reference steps is inherited by at least one device. *)

(** {2 Drill-down replay}

    The bridge from "fleet-wide anomaly" to "single-device repro": an
    outlier record carries the device id; {!replay} re-elaborates that
    one device from the spec — same RNG split, same schedule, same
    compiled image — and re-runs it with the full forensics kit
    attached.  The outcome is step-for-step the campaign's run (the
    observers are pure), so the replayed aggregate must equal the
    device's campaign contribution; from here
    {!Gecko_faultinject.Shrink} can minimize the repro. *)

type replay = {
  rp_device : device;
  rp_schedule : Gecko_emi.Schedule.t;
      (** The device's local attack schedule, as sampled from the field. *)
  rp_outcome : Gecko_machine.Machine.outcome;
  rp_agg : Agg.t;
  rp_telemetry : Telemetry.t;
      (** Single-device telemetry with top-K 1, so an anomalous device
          always yields its outlier record (flight dump included). *)
  rp_flight : Gecko_obs.Flight.t;
  rp_trace : Gecko_obs.Trace.t;
  rp_metrics : Gecko_obs.Metrics.registry;
}

val replay : device_id:int -> Spec.t -> replay
(** Raises [Invalid_argument] if [device_id] is outside the spec's
    device range. *)

val shrink_repro : replay -> Gecko_faultinject.Shrink.repro
(** The replayed device as a shrinker input: its compiled program plus
    its local attack schedule (no forced fires).  Feed to
    {!Gecko_faultinject.Shrink.shrink} with a check that replays the
    device's anomaly to minimize the repro. *)
