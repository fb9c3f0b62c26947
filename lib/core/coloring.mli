(** Checkpoint-slot colouring — static double buffering (Section VI-D).

    A power failure in the middle of a boundary's checkpoint-store run
    must leave intact every slot the committed boundary's recovery state
    reads.  The pass therefore 2-colours, per register [r], the graph of
    emitted stores of [r] under span adjacency ({!Spans.edges}): store
    [b] of [r] is adjacent to store [a] when a path from just after [a]
    reaches [b] without crossing another store of [r] or a boundary
    where [r] is dead.  Edges cross functions via calls and returns.

    Two adjacent stores may share a colour when they write the same
    word: no path of the span between them defines [r].

    An odd cycle (the paper's "join point" conflict) is repaired by
    inserting a fresh boundary immediately after a cycle node that is
    the source of a directed cycle edge.  The repair boundary force-keeps
    only the conflicting register (or registers, when conflicts at one
    node share a repair) — the paper's "additional checkpoint that saves
    the problematic register to a different index" — and treats its
    other live-ins like any boundary's. *)

open Gecko_isa

type t

val color : t -> int -> Reg.t -> int
(** Colour of the checkpoint store of a register at a boundary; raises
    [Not_found] if that pair is not an emitted store. *)

type state
(** What one {!assign} call hands to the next on the same program: its
    repair boundaries, with the registers each force-keeps. *)

type outcome = {
  cands : Candidates.t;  (** of the final, repaired program *)
  decisions : Prune.result;
  colors : t;
  rounds : int;
      (** colouring attempts of this call: one per repair, plus the final
          success *)
  state : state;
}

val assign :
  ?resume:state ->
  ?metrics:Gecko_obs.Metrics.registry ->
  next_id:int ref ->
  analyze:
    (force_keep:(int -> Reg.Set.t) ->
    memo:Prune.memo ->
    Candidates.t ->
    Prune.result) ->
  Cfg.program ->
  outcome
(** May insert repair boundaries (mutating the program).  [analyze] is
    re-run after every insertion, receiving the repair boundaries'
    forced-keep sets, so repair stores are first-class during pruning —
    in particular the reuse pass sees them as unprunable owned stores
    rather than discovering them after the fact.

    Each round re-derives only what a repair can change.  Once per call:
    liveness, clobbers, dominators, the reaching definitions of each
    function (shifted in place by every repair,
    {!Candidates.boundary_inserted}) and the
    {!Candidates.reaches_avoiding} memo, all in one {!Candidates.facts}.  [memo] (one per call, handed to every round's
    [analyze]) keeps each site's phase-1 slice decisions.  Per round:
    the candidate sites, phase 2 of pruning and the colouring itself.
    The memos are dropped when the call returns.

    [metrics] counts reaching-definition fixpoints computed
    ([pipeline.reaching.computes]), registers sliced
    ([pipeline.prune.sliced]) and sites served by the slice memo
    ([pipeline.prune.slice_memo_hits]).

    [resume] continues from the [state] of an earlier call on the same
    program, whose repair boundaries are still in place and whose
    emitted checkpoint stores have been removed again: its repairs stay
    force-kept instead of being rediscovered one round at a time.  The
    pipeline resumes this way after it force-keeps a clobbered reuse.
    Raises [Failure] if colouring does not converge. *)
