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

    [mode] (default [Speculative]) selects the soundness point of the
    whole pipeline:

    - [Speculative] — the sound pipeline: interprocedural syntactic
      may-alias WAR hazards are all cut at region formation (regions
      stay idempotent), pruning quarantines functions with residual
      hazards, and checkpoint pruning reuses slots optimistically.
      Every owned checkpoint store that may overwrite a reused slot
      inside a crash window gets a runtime speculation guard (an
      undo-log append of the slot's old word) recorded in
      {!Meta.t.guards}; rollback replays the log before running
      restores, so reused slots read their as-of-commit values.  The
      independent [Verify.slots], [Verify.io_commit] and
      [Verify.speculation] gates run on the result.
    - [Legacy] — the seed's optimistic compiler; exists solely as the
      baseline for soundness-overhead measurement (it can emit programs
      whose rollback is unsound under dynamic addressing).

    [obs] turns on the compiler profiler: every pass is recorded as a
    host-clock span (category ["compiler"]) with an [ir_instrs] counter
    sample after it.  [metrics] additionally collects per-pass wall-time
    histograms ([pipeline.<pass>.seconds]), IR-size gauges
    ([pipeline.<pass>.ir_instrs]) and the [pipeline.coloring.rounds]
    counter (colouring attempts, one per repair boundary plus the final
    success). *)

val speculation_guards : Cfg.program -> Meta.t -> (string * string * int) list
(** The owned checkpoint stores targeting a reused (register, colour)
    slot of a (final, post-emit) program, as (function, block label,
    instruction index) triples — what [compile ~mode:Speculative]
    records in {!Meta.t.guards}.  A slot counts as reused when any
    boundary's metadata carries a non-owned restore of it.  Exposed so
    harnesses that re-link a mutated program (e.g. counterexample
    shrinking) can recompute guard positions for the mutant instead of
    reusing stale ones. *)

val checkpoint_store_count : Cfg.program -> int
(** Static count of checkpoint stores ([Ckpt] / [CkptDyn]) — Table III. *)

val boundary_count : Cfg.program -> int
