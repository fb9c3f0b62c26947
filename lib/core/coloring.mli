(** Checkpoint-slot colouring — static double buffering (Section VI-D).

    If checkpoint store [b2] of register [r] can be the {e next} store of
    [r] after store [b1] at runtime (some execution path connects them
    without an intervening store of [r]), the two must target different
    slot indices: a power failure in the middle of [b2]'s checkpoint
    sequence must leave the slots the committed recovery state references
    intact.

    The pass 2-colours, per register, the graph of emitted checkpoint
    stores under that consecutive-store adjacency (including
    cross-function edges via calls and returns).  An odd cycle (the
    paper's "join point" conflict) is repaired by inserting a fresh
    boundary immediately after a cycle node that is the source of a
    private cycle edge; the new boundary checkpoints all its live-ins
    unpruned — the paper's "additional checkpoint". *)

open Gecko_isa

type t

val color : t -> int -> Reg.t -> int
(** Colour of the checkpoint store of a register at a boundary; raises
    [Not_found] if that pair is not an emitted store. *)

val adjacency : Candidates.t -> (int * int) list
(** Immediate span-successor pairs of boundary ids (every boundary stops
    the walk). *)

val adjacency_for : Candidates.t -> stops:(int -> bool) -> (int * int) list
(** Directed consecutive pairs where only boundaries satisfying [stops]
    terminate the walk (and only they are walk sources). *)

type outcome = {
  cands : Candidates.t;  (** of the final, repaired program *)
  decisions : Prune.result;
  colors : t;
  rounds : int;
      (** colouring attempts: one per repair, plus the final success *)
}

val assign :
  next_id:int ref ->
  analyze:
    (force_keep:(int -> Reg.Set.t) ->
    Cfg.program ->
    Candidates.t ->
    Prune.result) ->
  Cfg.program ->
  outcome
(** May insert repair boundaries (mutating the program).  [analyze] is
    re-run after every insertion, receiving the repair boundaries'
    forced-keep sets, so repair stores are first-class during pruning —
    in particular the reuse pass sees them as unprunable owned stores
    rather than discovering them after the fact.  Facts a repair cannot
    change (liveness, clobbers, dominators, block reachability, an empty
    hazard set) are computed once per call.  Raises [Failure] if
    colouring does not converge. *)

(**/**)

(* Debug hooks for convergence tracing (tests only). *)
val try_color_debug : Candidates.t -> Prune.result -> int list option
val insert_repair_debug : next_id:int ref -> Candidates.t -> int -> unit
val pick_repair_node : (int * int) list -> int list -> int
