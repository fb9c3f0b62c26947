(** Campaign outliers: the top-K devices by badness score.

    A campaign reduced to monoid aggregates ({!Agg}) hides exactly the
    devices that matter at fleet scale: the tails.  A [Telemetry.t] keeps
    them — the K worst devices, each carrying its exact seed and spec
    coordinates (and its flight recorder dump), which is everything
    [gecko replay] needs to re-create that one device deterministically.
    The campaign's counters and latencies live in {!Agg} alone.

    Everything here is simulated-time data: merging shard telemetries in
    shard-id order produces byte-identical JSON at any pool width.  The
    wall-clock side of a live campaign (devices/s, ETA) never enters
    this structure — {!Campaign} segregates it into a clearly-marked
    nondeterministic stream record. *)

module Json = Gecko_obs.Json

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
  top_k : int;
  outliers : outlier list;
      (** At most [top_k], sorted by score descending (device id breaks
          ties), each with a positive score. *)
}

val empty : top_k:int -> t

val merge : t -> t -> t
(** Commutative monoid with [empty]: the outlier lists concatenate,
    re-sort and truncate, which is order-insensitive because the sort
    key [(score, id)] is total. *)

val of_device :
  top_k:int ->
  id:int ->
  seed:int ->
  workload:string ->
  scheme:string ->
  board:string ->
  x:float ->
  y:float ->
  flight:Json.t option ->
  Agg.t ->
  t
(** Telemetry of a single device run: its outlier record when it scores
    above 0.  The score is [1000 * corruptions + 10 * checkpoint failures
    + 0.1 * brownouts + 100 * worst latency (s)], the worst latency
    being the maximum of the aggregate's [detect_latency]: corruption
    (silent wrong answers) dominates checkpoint failures dominates
    brownouts, and a second of detection latency sits between a
    checkpoint failure and a corruption. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** Exact round-trip (snapshot resume relies on it); raises
    [Invalid_argument] on malformed input. *)

(** {2 Campaign configuration} *)

type config = {
  tel_path : string option;
      (** Write the [gecko.fleet-telemetry/2] JSONL stream here. *)
  tel_progress : bool;  (** Live stderr progress line. *)
  tel_top_k : int;
}

val default_config : config
(** No stream file, no progress line, top-K 8.  Devices carry flight
    recorders of {!Gecko_obs.Flight.default_capacity}. *)

val stream_schema : string
(** ["gecko.fleet-telemetry/2"]. *)
