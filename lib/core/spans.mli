(** Span walks over boundary sites: who can be the next boundary after
    whom at runtime, across functions (calls flow into callee entries,
    returns flow to every call site's return block), and which
    registers a path defines on the way.

    Shared by slot colouring (span adjacency) and the verification pass
    (crash windows).  Both judge value equality along the walked paths:
    a definition counts when it can execute on a path the walk follows,
    including definitions inside callee bodies the walk enters and the
    [sp] update of every [Call] and [Ret]. *)

open Gecko_isa

type t
(** The instruction bodies of a program's blocks, indexed for walking,
    with a memo of the last {!edges} call's walks. *)

val make : Candidates.facts -> Cfg.program -> t
(** Over the program the facts describe; the sites are passed to each
    {!edges} call.  One [t] serves every colouring round of a compile:
    the program changes between rounds only by repair boundaries, each
    reported through {!boundary_inserted}. *)

val boundary_inserted : t -> func:int -> blk:int -> after:int -> unit
(** A [Boundary] was inserted into block [blk] of function [func] right
    after boundary [after]: re-read that block's body, and drop the
    recorded walks that can reach the new boundary (the walk from
    [after], and every walk that visited [after]) at the next
    {!edges} call. *)

val iter_window :
  t ->
  Candidates.site ->
  Reg.Set.t ->
  f:(int -> int -> int -> Instr.t -> redefined:Reg.Set.t -> unit) ->
  unit
(** [iter_window w s regs ~f] visits every instruction position
    [(func, blk, idx, instr)] reachable from just after the site before
    crossing any boundary — the site's crash window — tracking the
    registers [regs].  Slot stores ([Ckpt]) of the next boundary execute
    inside this window, before its commit.

    A position may be visited more than once, each time with the
    registers of [regs] newly found to reach it along a path that
    defines them since [s] in [redefined].  A register of [regs] in no
    visit's [redefined] is unchanged since [s] on every window path to
    the position. *)

val edges :
  t ->
  sites:Candidates.site list ->
  stores:(int -> Reg.Set.t) ->
  (int * int * bool) list array
(** Span adjacency under the stores [stores id] of every boundary of
    [sites] (every boundary of the program, in program order),
    indexed by [Reg.to_int r]: the directed edges [(a, b, redefined)]
    of register [r].  The span of [r] from a boundary [a] that stores it
    follows every path from just after [a] and ends at the first
    boundary that either

    - stores [r]: then [(a, b)] is an edge, or
    - has [r] outside its live-in set: no edge.  That boundary's
      recovery state reads no slot of [r], and every path onward
      redefines [r] before any use, so no later restore can reuse a slot
      written before it.

    [redefined] is [true] when some path of the span from [a] to [b]
    defines [r]; when it is [false], [b] stores exactly the word [a]
    stored.

    A register's edge list comes out in the order of a hash table
    filled, source by source in [sites] order, with the edges of each
    source's walk; that order decides which conflict colouring repairs
    first, so the table is never randomised.  The walk from a source is
    replayed from the last call instead of run again when its stores
    are the same, it is no repaired node, and no boundary it visited
    changed its stores or is a repaired node.  A register whose edges
    come out in the same order as in the last call gets that call's
    list back, physically. *)

val walk_counts : t -> int * int
(** [(walked, reused)]: span walks {!edges} ran, and recorded walks it
    replayed instead, over every call on [t]. *)
