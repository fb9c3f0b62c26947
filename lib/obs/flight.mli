(** Fixed-capacity flight recorder — the device's black box.

    Keeps the last-N machine/runtime events (boundary commits, checkpoint
    begin/commit/fail, detections, rollbacks, brownouts, attack-window
    entries, io commits) with a voltage snapshot per event.  Unlike
    {!Trace} — which records everything and is sized for one closely
    watched run — a flight recorder is sized for a fleet: every device
    can carry one at near-zero cost, and only the recorders of anomalous
    devices are ever dumped.

    Recording is allocation-free: the ring is preallocated at creation
    and entries are overwritten in place (event names are static
    strings).  A device without a recorder holds [None].

    All fields are simulated-time quantities — a dump is byte-identical
    across hosts, pool widths and wall-clock conditions. *)

type entry = {
  e_t : float;  (** Simulated seconds. *)
  e_ev : string;  (** Event name, e.g. ["rollback"]. *)
  e_arg : int;  (** Event argument (boundary id, staged count, ...). *)
  e_v : float;  (** Supply voltage at the instant (V). *)
}

type t

val default_capacity : int
(** 64 — deep enough to show the protocol context around an anomaly,
    small enough for a million devices to carry one each. *)

val create : ?capacity:int -> unit -> t
(** A fresh recorder holding the last [capacity] events
    (default {!default_capacity}, clamped to at least 1). *)

val copy : t -> t
(** An independent copy of the ring and its counters: recording into
    either recorder leaves the other untouched.  Reads [t] only. *)

val record : t -> t_sim:float -> arg:int -> v:float -> string -> unit
(** Append an event; once full, the oldest is overwritten.  [ev] should
    be a static string — the hot path then allocates nothing. *)

val capacity : t -> int
val length : t -> int

val dropped : t -> int
(** Events overwritten after the ring filled. *)

val clear : t -> unit

val entries : t -> entry list
(** Oldest first. *)

val schema : string
(** ["gecko.flight/1"]. *)

val to_json : t -> Json.t
(** The [gecko.flight/1] dump:
    [{"schema"; "capacity"; "recorded"; "dropped";
      "events": [{"t"; "ev"; "arg"; "v"}, ...]}]
    with events oldest-first.  [recorded] counts every event ever seen
    (kept + dropped). *)

val to_string : t -> string
