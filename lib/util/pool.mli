(** Fixed-size domain pool for embarrassingly parallel sweeps.

    Built on the stdlib multicore primitives ([Domain], [Mutex],
    [Condition]) only — no external dependency.  The experiment harness
    uses it to fan simulator runs out across cores: every sweep point is
    an independent, deterministic closure (each run is seeded
    explicitly), so execution order cannot affect results and {!map} can
    return them in input order.

    A pool of size [n] provides [n]-way parallelism: [n - 1] worker
    domains plus the calling domain, which executes queued tasks itself
    while it waits.  Size 1 spawns no domains at all and [map] degrades
    to [List.map] — the exact serial behaviour.

    Tasks must not themselves call {!map} on the same pool (the nested
    call could deadlock waiting on workers that are all busy with the
    outer map). *)

type t

val default_jobs : unit -> int
(** Pool size used when none is given: the [GECKO_JOBS] environment
    variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; values below 1 are clamped to 1). *)

val jobs : t -> int
(** The parallelism degree the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], running the
    applications on the pool, and returns the results in input order.
    If any application raises, the first exception (in input order) is
    re-raised in the caller with its backtrace — after all tasks of this
    call have finished, so no work is left running in the background. *)

val shared : jobs:int -> t
(** The process-wide pool of size [jobs] (clamped to at least 1),
    created on first use and kept for the life of the process, for a
    caller that would otherwise create and shut down a pool per call.
    Each spawned and joined domain leaves its share of the major heap
    behind as free space that the process keeps, so a loop of
    per-call pools grows the heap with the number of calls.  Never
    {!shutdown} a shared pool; it is safe to call {!map} on it from
    several domains at once. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  [map] on a shut-down
    pool runs serially. *)
