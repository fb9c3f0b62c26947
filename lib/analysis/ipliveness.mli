(** Inter-procedural register liveness (context-insensitive).

    Per-function liveness is computed with call summaries and iterated to
    a fixpoint:

    - a [Call f] terminator uses the live-in set of [f]'s entry;
    - a [Ret] in [f] uses the union, over [f]'s call sites, of the live
      set at the corresponding return-block entry;
    - calls kill nothing (sound over-approximation of liveness).

    This determines the checkpoint candidate sets at call-related region
    boundaries — far smaller than the all-registers fallback.

    Each block's instructions are folded once into a summary (the
    registers read before any write, and the registers written), so an
    iteration of the fixpoint costs one set operation per block. *)

open Gecko_isa

type t

val compute : Cfg.program -> t

val live_at : t -> fname:string -> Fgraph.point -> Reg.Set.t
(** Registers live immediately before the instruction at the point
    (the terminator position included).  Answered from a per-block
    table built at the block's first query and keyed on its
    instruction list, so the answers follow a pass that inserts
    instructions which use and define no register (colouring's repair
    [Boundary]s) between queries; any other change needs a fresh
    {!compute}. *)

val graph : t -> fname:string -> Fgraph.t
