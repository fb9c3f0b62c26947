(** The per-shard substrate of a fleet campaign: the elaborated device
    record, the one device runner, the shard result value, and a
    streaming accumulator that folds devices into the shard monoids the
    moment they finish.

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

val device_telemetry :
  Telemetry.config ->
  device ->
  latencies:float list ->
  flight:Gecko_obs.Json.t option ->
  Agg.t ->
  Telemetry.t

val run_device_full :
  ?trace:Gecko_obs.Trace.t ->
  ?flight:Gecko_obs.Flight.t ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Gecko_machine.Machine.outcome
  * Agg.t
  * Gecko_obs.Metrics.registry
  * float list
(** Run one device with optional observers (replay's entry point):
    outcome, aggregate, metrics registry, detection latencies. *)

val run_device :
  ?telemetry:Telemetry.config ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option
(** {!run_device_full} plus, when [telemetry] is given, a flight
    recorder and the device's telemetry (see {!Campaign.run_device}). *)

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
