(** Metrics registry: named counters, gauges and log-bucketed
    histograms, with JSON and CSV dumps.

    Instruments are interned by name: asking a registry twice for the
    same name returns the same instrument; asking for an existing name
    with a different instrument kind raises [Invalid_argument].
    Recording into an instrument is O(1) and allocation-free. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
(** [nan] until first set. *)

val histogram : ?base:float -> ?lowest:float -> registry -> string -> histogram
(** Log-bucketed histogram: bucket [i] covers
    [\[lowest·base^i, lowest·base^(i+1))].  Defaults: [base = 2.],
    [lowest = 1e-9] (sub-nanosecond floor — durations in seconds land in
    sensible buckets).  Values below [lowest] (and non-positive values)
    count into an underflow bucket.  [base]/[lowest] are fixed by the
    first caller; later callers just get the interned instrument. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_min : histogram -> float
(** [nan] when empty. *)

val hist_max : histogram -> float
(** [nan] when empty. *)

val hist_mean : histogram -> float
(** [0.] when empty (Stats policy). *)

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [0,1]: the geometric midpoint of the
    bucket holding the [q]-th sample — accurate to one bucket width.
    [0.] when empty. *)

val bucket_bounds : histogram -> int -> float * float
(** Inclusive-lo/exclusive-hi bounds of bucket [i]. *)

val buckets : histogram -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending; the underflow
    bucket reports as [(0., lowest, n)]. *)

val copy : registry -> registry
(** An independent deep copy: recording into either registry leaves the
    other untouched.  Reads [reg] only, so domains may copy one shared
    registry concurrently while nobody records into it. *)

(** {2 Merge}

    Registries form a commutative monoid under {!merge_into} with the
    empty registry as identity: counters add, gauges keep the maximum of
    the set values (unset [nan] gauges are the identity), histograms add
    bucket-wise.  Integer fields merge exactly in any order; float sums
    are exactly commutative and associative up to rounding, so
    deterministic reducers (the fleet campaign) merge shards in a fixed
    order.  Used by sharded simulations to aggregate locally and reduce
    at the end. *)

val merge_into : registry -> registry -> unit
(** [merge_into dst src] folds every instrument of [src] into [dst],
    interning missing names.  Raises [Invalid_argument] if an
    instrument name is registered with a different kind, or a histogram
    with different [base]/[lowest], in the two registries. *)

(** {2 Persistence}

    Exact round-trip for campaign snapshots: [of_persist (to_persist r)]
    observes equal to [r] (floats print as [%.17g]; [nan]/infinite
    values degrade to JSON [null] and restore as [nan]). *)

val to_persist : registry -> Json.t

val of_persist : Json.t -> registry
(** Raises [Invalid_argument] on malformed input. *)

(** {2 Exporters} *)

val to_json : registry -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count;
    sum; min; max; mean; p50; p90; p99; buckets: [{lo; hi; count}]}}}].
    Instruments are sorted by name. *)

val to_csv : registry -> string
(** [kind,name,field,value] rows, sorted by name; histograms emit
    [count]/[sum]/[min]/[max]/[mean]/[p50]/[p90]/[p99] rows plus one
    [bucket<lo:hi>] row per non-empty bucket. *)

val to_prometheus : registry -> string
(** Prometheus text exposition (format 0.0.4): one [# TYPE] line per
    instrument, names sanitized to the Prometheus charset (dots become
    underscores).  Histograms expose cumulative [_bucket{le="..."}]
    series over the non-empty log buckets (underflow included under
    [le="lowest"]) plus the mandatory [le="+Inf"] bucket, [_sum] and
    [_count]. *)
