(** Shared pieces of the experiment harness: the victim application used
    in the attack studies, compile/link caching, and common run
    helpers. *)

open Gecko_isa
open Gecko_emi

val sense_app : unit -> Cfg.program
(** The canonical intermittent application of the attack experiments: an
    endless sense–process–report loop (Section III, "Applications"). *)

val compiled :
  Gecko_core.Scheme.t -> Cfg.program -> Link.image * Gecko_core.Meta.t
(** Compile and link (memoized on program name + scheme).  Thread-safe:
    the memo table is shared with the experiment pool's worker domains —
    and with every fleet campaign shard, so a workload×scheme pair
    compiles once per process, not once per device — and guarded by a
    mutex. *)

val cache_counts : unit -> int * int
(** Process-lifetime [(hits, misses)] of the shared compile cache.
    Misses count distinct (program, scheme) keys compiled regardless of
    pool size; campaign throughput reporting takes deltas around a
    run. *)

val decoded :
  Gecko_core.Scheme.t ->
  Cfg.program ->
  board:Gecko_machine.Board.t ->
  Link.image * Gecko_core.Meta.t * Gecko_machine.Decode.t
(** {!compiled}, plus the pre-decoded instruction stream for the board's
    device, memoized beside the compile cache on (program, scheme,
    device model).  Feed the third component to
    {!Gecko_machine.Machine.options.decoded} so repeated runs of the
    same workload skip the O(code size) decode pass. *)

val decode_counts : unit -> int * int
(** Process-lifetime [(hits, misses)] of the decode cache (one miss per
    distinct (program, scheme, device) key). *)

val workload_program : string -> Cfg.program
(** The catalogued workload's CFG, built once per process and memoized
    by name (builds are deterministic).  Raises like
    {!Gecko_workloads.Workload.find} on unknown names. *)

val decoded_workload :
  Gecko_core.Scheme.t ->
  string ->
  board:Gecko_machine.Board.t ->
  Link.image * Gecko_core.Meta.t * Gecko_machine.Decode.t
(** {!decoded} of {!workload_program}: the fleet device runner's one-stop
    image/meta/decoded lookup, every layer memoized. *)

val record_cache_metrics : Gecko_obs.Metrics.registry -> unit
(** Publish {!cache_counts} and {!decode_counts} as the
    [workbench.compile_cache_hits] / [workbench.compile_cache_misses] /
    [workbench.decode_cache_hits] / [workbench.decode_cache_misses]
    counters of a metrics registry (setting them to the current totals,
    idempotently). *)

val jobs : unit -> int
(** Effective parallelism of the experiment pool: the value given to
    {!set_jobs}, else [GECKO_JOBS], else the runtime's recommended
    domain count (see {!Gecko_util.Pool.default_jobs}). *)

val set_jobs : int -> unit
(** Fix the experiment pool's size ([>= 1]; 1 means fully serial).
    Replaces a live pool of a different size.  Call from the
    coordinating domain only — never from inside a {!pmap} task. *)

val pmap : ('a -> 'b) -> 'a list -> 'b list
(** Run one closure per sweep point on the shared experiment pool.
    Order-preserving and exception-propagating (see
    {!Gecko_util.Pool.map}).  Each closure must be self-contained: it
    may call {!compiled} but must not call {!pmap} itself.  With one
    job this is exactly [List.map], so experiment output is identical
    at every pool size. *)

val run_nvp_progress :
  board:Gecko_machine.Board.t ->
  schedule:Schedule.t ->
  duration:float ->
  Gecko_machine.Machine.outcome
(** Run the sense app under NVP for [duration] seconds of simulated time
    and report the outcome (forward-progress studies). *)

val progress_rate :
  board:Gecko_machine.Board.t -> attack:Attack.t option -> duration:float -> float
(** Forward-progress rate R of the NVP sense app, normalized to the
    attack-free rate on the same board (1.0 = unimpeded). *)
