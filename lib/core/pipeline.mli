(** The GECKO compiler driver: the five-step pass sequence of Section VI-B
    plus pruning, colouring and emission.

    {ol
    {- idempotent region formation;}
    {- WCET analysis of every region span;}
    {- splitting of regions that cannot finish within one charge cycle
       (looping back to the WCET analysis);}
    {- a second region-formation pass (splits may have broken a WARAW
       exemption);}
    {- checkpoint insertion: candidates (live-ins) → pruning → slot
       colouring (with repair boundaries) → emission of checkpoint
       stores and recovery metadata.}}

    The input program is deep-copied: one built workload can be compiled
    under every scheme. *)

open Gecko_isa

val default_budget : int
(** Default charge-cycle budget in cycles (overridden by experiment
    configurations derived from board parameters). *)

val compile :
  ?budget_cycles:int ->
  ?prune_slices:bool ->
  ?prune_reuse:bool ->
  ?mode:Mode.t ->
  ?obs:Gecko_obs.Trace.t ->
  ?metrics:Gecko_obs.Metrics.registry ->
  Scheme.t ->
  Cfg.program ->
  Cfg.program * Meta.t
(** [prune_slices]/[prune_reuse] (both default [true]) independently
    disable the two checkpoint-pruning mechanisms of the [Gecko] scheme —
    the ablation study.  Raises [Failure] if a verification pass fails —
    a compiler bug, not a user error.

    Regions are idempotent by construction: every interprocedural
    syntactic may-alias WAR hazard is cut at region formation, pruning
    quarantines functions with residual hazards, and checkpoint pruning
    reuses slots optimistically.  After emission the window-clobber scan
    ({!Verify.slot_clobbers}) names every reused slot some store
    overwrites inside the reuser's crash window; each such reuse is
    force-kept through [Prune.analyze_with ~force_keep] and colouring
    resumes, until the scan is empty (bounded; raises [Failure] past the
    bound).  The [slots] gate reads that last, clobber-free scan
    ({!Verify.slots}, its errors included) rather than scanning
    the same program again; it and the independent [Verify.io_commit]
    gate run on the result, so no image needs a runtime guard.

    [mode] is ignored: the pipeline has one mode, and the argument
    exists only for the [bench/perf] harness (see {!Mode}).

    [obs] turns on the compiler profiler: every pass is recorded as a
    host-clock span (category ["compiler"]) with an [ir_instrs] counter
    sample after it.  [metrics] additionally collects per-pass wall-time
    histograms ([pipeline.<pass>.seconds]), IR-size gauges
    ([pipeline.<pass>.ir_instrs]), the [pipeline.coloring.rounds]
    counter (colouring attempts, one per repair boundary plus one
    success per colour-emit-scan attempt), the
    [pipeline.slot_force_keeps] counter (clobbered reuses turned into
    owned stores) and the re-derivation counters of the two fix-up
    loops: WAR hazard searches and the loads they walk
    ([pipeline.war.searches], [pipeline.war.loads_walked], see
    {!Regions.form}), reaching-definition fixpoints, registers sliced
    and slice-memo hits ([pipeline.reaching.computes],
    [pipeline.prune.sliced], [pipeline.prune.slice_memo_hits], see
    {!Coloring.assign}).  All counters are deterministic.  Without
    [obs] and [metrics] no pass reads a clock. *)

val checkpoint_store_count : Cfg.program -> int
(** Static count of checkpoint stores ([Ckpt] / [CkptDyn]) — Table III. *)

val boundary_count : Cfg.program -> int
