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

val make : Candidates.t -> t

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

val edges : t -> stores:(int -> Reg.Set.t) -> (int * int * bool) list array
(** Span adjacency under the stores [stores id] of every boundary,
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
    stored. *)
