(** The per-shard substrate of a fleet campaign: the elaborated device
    record, the shared-prefix table, the one device runner, the shard
    result value, and a streaming accumulator that folds devices into
    the shard monoids the moment they finish.

    The invariant: devices fold into an {!acc} in ascending device-id
    order.  [Agg.merge] and the metrics histograms add floats, and float
    addition is not associative, so one canonical fold order is what
    makes shard results — and therefore merged reports and telemetry
    streams — byte-identical across pool widths and resumes. *)

type device = {
  id : int;
  workload : string;
  scheme : Gecko_core.Scheme.t;
  board : Spec.board_kind;
  x : float;
  y : float;
  seed : int;
}

val board : Spec.board_kind -> Gecko_machine.Board.t
(** The campaign's shared board for a kind.  Both carry ADC monitors, a
    precondition of exact prefix sharing (see {!prefix}). *)

val device_telemetry :
  top_k:int -> device -> flight:Gecko_obs.Json.t option -> Agg.t -> Telemetry.t

val run_device_full :
  ?trace:Gecko_obs.Trace.t ->
  ?flight:Gecko_obs.Flight.t ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Gecko_machine.Machine.outcome * Agg.t * Gecko_obs.Metrics.registry
(** Run one device from power-on with optional observers (replay's entry
    point): outcome, aggregate, metrics registry. *)

(** {2 Shared prefixes}

    Until its first attack window starts, a device's run is bit for bit
    the unattacked run of its (scheme, workload, board) — and of its seed
    too when the image reads input ([In]).  A prefix table holds one
    schedule-free reference run per such key, forked
    ({!Gecko_machine.Machine.Step.fork}) at every distinct first-window
    start its devices need, plus the finished reference for devices that
    never see a window; a device attacked from time 0 shares nothing and
    is left out.  A device forks its entry, installs its own schedule and
    finishes on block dispatch: the same outcome, aggregate, metrics and
    flight dump as its power-on run. *)

type prefix

val prefix :
  ?telemetry:Telemetry.config ->
  spec:Spec.t ->
  field:Field.t ->
  device list ->
  prefix
(** The table for these devices: only their keys and fork points are
    kept, so it is O(keys x (field_steps + 1)) whatever the device
    count — fork points are first-window starts, multiples of
    [duration / field_steps].  References carry a metrics registry and,
    under [telemetry], a flight recorder, like the devices forking
    them.  Keys build in parallel on
    {!Gecko_harness.Workbench.pmap}.  Afterwards the table is only read,
    so shards on several domains may share it, and each fork point is
    dropped by the last of these devices to fork it. *)

val prefix_saved : prefix -> int
(** Instructions the table has spared so far: those the devices that
    forked from it inherited from their fork points, less those the
    references stepped (each once).  A device that ran from power-on
    instead adds nothing. *)

val reads_input : Gecko_isa.Link.image -> bool
(** Whether the image holds an [In] op — then a run depends on its seed,
    which joins the prefix key. *)

val start :
  ?telemetry:Telemetry.config ->
  ?prefix:prefix ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Gecko_machine.Machine.Step.handle
(** The device's start handle: a fork of its [prefix] entry, carrying its
    schedule, when the table holds one and was built with [telemetry]
    armed as it is here; else power-on, with a fresh flight recorder
    under [telemetry].  Either way the handle has a metrics registry. *)

val run_device :
  ?telemetry:Telemetry.config ->
  ?prefix:prefix ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option
(** Run one device from its {!start} handle to the end of the campaign
    duration.  When [telemetry] is given the run carries a flight
    recorder and the device's telemetry is returned (see
    {!Campaign.run_device}). *)

(** {2 Shard results} *)

type t = {
  sr_id : int;
  sr_agg : Agg.t;
  sr_per_scheme : (string * Agg.t) list;
  sr_per_workload : (string * Agg.t) list;
  sr_metrics : Gecko_obs.Json.t;
      (** Shard metrics registry, [Metrics.to_persist] form. *)
  sr_telemetry : Telemetry.t option;
      (** Present when the campaign ran with telemetry. *)
}

val to_json : t -> Gecko_obs.Json.t
val of_json : Gecko_obs.Json.t -> t
(** Exact round-trip; raises [Invalid_argument] on malformed input. *)

(** {2 Streaming accumulator} *)

val group_add : (string, Agg.t) Hashtbl.t -> string -> Agg.t -> unit
(** Fold an aggregate into a keyed group table (in call order). *)

val sorted_groups : (string, Agg.t) Hashtbl.t -> (string * Agg.t) list
(** The group table as an association list, keys ascending. *)

type acc
(** A shard under construction.  O(#groups + top_k) memory however many
    devices fold in. *)

val acc_create : ?telemetry:Telemetry.config -> int -> acc

val acc_add :
  acc ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option ->
  unit
(** Fold one finished device in.  Call in ascending device-id order —
    the byte-identity invariant. *)

val acc_finish : acc -> t
