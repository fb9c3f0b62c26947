(** Low-overhead trace recorder.

    Records {e instant events}, {e complete spans} and {e counter
    samples}, each stamped with a caller-supplied timestamp [ts] (the
    simulator passes simulated seconds; the compiler profiler passes
    host seconds via {!elapsed}) and with the host wall clock at record
    time.  Entries live in a bounded ring buffer: recording is O(1),
    allocation-free once the buffer has grown to steady state, and when
    the buffer is full the oldest entries are overwritten (the drop
    count is kept).  A recorder always records: callers that trace
    nothing hold no recorder ([None]) rather than a disabled one.

    Exporters produce the Chrome trace-event JSON array format (load
    the file in Perfetto / [chrome://tracing]) and JSONL. *)

type phase =
  | Instant  (** A point event ([ph = "i"]). *)
  | Complete of float  (** A span with this duration in seconds ([ph = "X"]). *)
  | Counter of float  (** A sampled value ([ph = "C"]). *)

type entry = {
  name : string;
  cat : string;  (** Chrome trace category, e.g. ["checkpoint"]. *)
  ts : float;  (** Caller clock, seconds (simulated or host-elapsed). *)
  host : float;  (** Host wall-clock seconds since recorder creation. *)
  tid : int;  (** Track id; exporters map it to the Chrome [tid]. *)
  ph : phase;
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh recorder.  [capacity] (default 262144 entries)
    bounds memory; past it the oldest entries are dropped. *)

val elapsed : t -> float
(** Host wall-clock seconds since [create] — the profiling clock. *)

val instant : t -> ?cat:string -> ?tid:int -> ts:float -> string -> unit
val complete : t -> ?cat:string -> ?tid:int -> ts:float -> dur:float -> string -> unit
val counter : t -> ?cat:string -> ?tid:int -> ts:float -> string -> float -> unit

val span : t -> ?cat:string -> ?tid:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and records a host-clock complete span
    around it — the compiler-profiler idiom.  The span is recorded even
    if [f] raises. *)

val length : t -> int
(** Entries currently held (≤ capacity). *)

val dropped : t -> int
(** Entries overwritten after the ring filled. *)

val entries : t -> entry list
(** Oldest first. *)

val clear : t -> unit

(** {2 Exporters} *)

val to_chrome : ?pid:int -> t -> Json.t
(** The Chrome trace-event object form:
    [{"traceEvents": [...], "otherData": {"recorded"; "dropped"}}] — one
    [{name; cat; ph; ts; pid; tid}] object per entry, [ts] in
    microseconds.  Counter entries carry [args = {"value": v}]; every
    entry carries [args.host_s].  [otherData] records how many entries
    the ring ever saw and how many were overwritten, so a truncated
    trace is visible instead of silently short (Perfetto and
    chrome://tracing accept both the array and the object form). *)

val to_chrome_string : ?pid:int -> t -> string

val to_jsonl : t -> string
(** One compact JSON object per line:
    [{"name"; "cat"; "ph"; "ts"; "host"; "tid"; "dur"?; "value"?}]. *)
