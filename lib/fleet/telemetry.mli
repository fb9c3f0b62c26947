(** Streaming campaign health telemetry.

    A campaign reduced to monoid aggregates ({!Agg}) hides exactly the
    devices that matter at fleet scale: the tails.  A [Telemetry.t] is a
    second, richer monoid folded alongside the aggregates: population
    counters, a mergeable detection-latency quantile sketch, and the
    top-K outlier devices ranked by a configurable badness score — each
    outlier carrying its exact seed and spec coordinates (and its flight
    recorder dump, when it carried one), which is everything
    [gecko replay] needs to re-create that one device deterministically.

    Everything here is simulated-time data: merging shard telemetries in
    shard-id order produces byte-identical JSON at any pool width.  The
    wall-clock side of a live campaign (devices/s, ETA) never enters
    this structure — {!Campaign} segregates it into a clearly-marked
    nondeterministic stream record. *)

module Json = Gecko_obs.Json

(** Mergeable log-bucketed quantile sketch (seconds; 1 µs resolution
    floor, factor-2 buckets).  The campaign uses it for onset-to-
    detection latencies; quantile estimates are geometric bucket
    midpoints, like {!Gecko_obs.Metrics.quantile}. *)
module Sketch : sig
  type t

  val empty : t
  val add : t -> float -> t
  val merge : t -> t -> t
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** [quantile s q] for [q] in [0,1]; 0 on an empty sketch.
      Monotone in [q]. *)

  val to_json : t -> Json.t

  val of_json : Json.t -> t
  (** Exact round-trip; raises [Invalid_argument] on malformed input. *)
end

(** Badness-score weights.  A device's score is
    [w_corruption * corruptions + w_ckpt_failure * checkpoint failures
     + w_brownout * brownouts + w_detect_latency * worst latency (s)];
    devices with score 0 are healthy and never become outliers. *)
type weights = {
  w_corruption : float;
  w_ckpt_failure : float;
  w_brownout : float;
  w_detect_latency : float;
}

val default_weights : weights
(** Corruption (silent wrong answers) dominates checkpoint failures
    dominates brownouts; a second of detection latency sits between a
    checkpoint failure and a corruption. *)

type outlier = {
  o_device : int;  (** Device id — the [gecko replay --device] handle. *)
  o_score : float;
  o_seed : int;  (** The device's exact per-run RNG seed. *)
  o_workload : string;
  o_scheme : string;  (** {!Spec.scheme_slug} form. *)
  o_board : string;  (** {!Spec.board_slug} form. *)
  o_x : float;
  o_y : float;  (** Deployment coordinates (m). *)
  o_corruptions : int;
  o_ckpt_failures : int;
  o_brownouts : int;
  o_detections : int;
  o_latency_worst : float;  (** Worst onset-to-detection latency (s). *)
  o_flight : Json.t option;  (** Its [gecko.flight/1] dump, if recorded. *)
}

type t = {
  devices : int;
  anomalies : int;  (** Devices with corruptions or checkpoint failures. *)
  corruptions : int;
  ckpt_failures : int;
  brownouts : int;
  detections : int;
  completions : int;
  latency : Sketch.t;  (** All onset-to-detection latencies. *)
  top_k : int;
  outliers : outlier list;
      (** At most [top_k], sorted by score descending (device id breaks
          ties), each with a positive score. *)
}

val empty : top_k:int -> t

val merge : t -> t -> t
(** Commutative monoid with [empty] (integer fields add exactly; the
    outlier lists concatenate, re-sort and truncate, which is
    order-insensitive because the sort key [(score, id)] is total). *)

val of_device :
  weights:weights ->
  top_k:int ->
  id:int ->
  seed:int ->
  workload:string ->
  scheme:string ->
  board:string ->
  x:float ->
  y:float ->
  latencies:float list ->
  flight:Json.t option ->
  Agg.t ->
  t
(** Telemetry of a single device run: its {!Agg.t} contribution plus
    the identifying coordinates an outlier record must carry. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** Exact round-trip (snapshot resume relies on it); raises
    [Invalid_argument] on malformed input. *)

(** {2 Campaign configuration} *)

type config = {
  tel_path : string option;
      (** Write the [gecko.fleet-telemetry/1] JSONL stream here. *)
  tel_progress : bool;  (** Live stderr progress line. *)
  tel_top_k : int;
  tel_weights : weights;
  tel_flight_capacity : int;
      (** Ring capacity of the per-device flight recorders. *)
}

val default_config : config
(** No stream file, no progress line, top-K 8, {!default_weights},
    {!Gecko_obs.Flight.default_capacity}. *)

val stream_schema : string
(** ["gecko.fleet-telemetry/1"]. *)

val weights_to_json : weights -> Json.t
val weights_of_json : Json.t -> weights

val config_to_json : config -> Json.t
(** The replay-relevant half of a config (top-K, flight capacity,
    weights) — embedded in the stream header so [gecko replay] can
    reconstruct the campaign's exact scoring and ring depth.
    [tel_path] and [tel_progress] are invocation-local and excluded. *)

val config_of_json : Json.t -> config
(** Inverse of {!config_to_json} over the embedded fields; [tel_path]
    and [tel_progress] come back as their defaults.  Raises
    [Invalid_argument] on malformed input. *)
