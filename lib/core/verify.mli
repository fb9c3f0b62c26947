(** Final verification passes run after compilation (and used heavily by
    the property-based tests).

    These are independent soundness gates: they re-derive their property
    from the emitted program (and its metadata) rather than trusting the
    passes that were supposed to establish it. *)

open Gecko_isa

val idempotence : ?mode:Mode.t -> Cfg.program -> (unit, string list) result
(** No may-alias memory anti-dependence survives without a boundary
    between the load and the store (WARAW-exempt pairs aside), in every
    mode — regions are idempotent by construction and re-execution after
    a rollback is deterministic without memory replay.  [mode] (default
    [Speculative]) picks the hazard verdicts: [Legacy] checks only the
    seed's optimistic criterion (soundness-overhead measurement
    baseline); [Speculative] checks the sound syntactic set. *)

val coloring : Cfg.program -> Meta.t -> (unit, string list) result
(** No two span-adjacent boundaries ({!Spans.edges} over the owned
    stores) checkpoint the same register into the same slot colour,
    unless the two stores write the same word: no path of the span
    between them defines the register, or both share a stability
    class. *)

val slot_clobbers : Cfg.program -> Meta.t -> (string * string * int) list
(** The positions — [(fname, block label, instr idx)], sorted — of every
    checkpoint store that overwrites, inside some boundary's crash
    window, a slot that boundary's committed recovery state reads,
    without a value-equality or stability exemption: precisely the
    stores that must carry a runtime undo-log guard, which is how the
    pipeline computes {!Meta.t.guards}.  Every position is a [Ckpt]. *)

val slots : Cfg.program -> Meta.t -> (unit, string list) result
(** Window-clobber gate: no slot read by a boundary's committed recovery
    state (restores — owned or reused — and recovery-block slot loads) is
    overwritten by a checkpoint store inside that boundary's crash
    window, unless the overwrite provably stores the identical word
    (every window path reaching it leaves the register unchanged, or
    writer and read share a stability class) or carries a speculation
    guard (a guarded store appends the slot's old word to the undo log,
    and rollback replays the log before running restores, so the read
    survives by construction).  Derived directly
    from the emitted instruction stream; in particular it rejects a
    reused restore whose owner's slot a later (e.g. repair) boundary
    clobbers. *)

val io_commit : Cfg.program -> (unit, string list) result
(** Atomic io_log commit: every [Out] is followed in its block (modulo
    checkpoint stores) by the boundary that atomically commits its
    staged io_log record. *)

val speculation :
  capacity:int -> Cfg.program -> Meta.t -> (unit, string list) result
(** Undo-log capacity gate: every guard names a [Ckpt] inside the run of
    checkpoint stores that ends at its block's [Boundary], and no run
    holds more than [capacity] guards.  The runtime empties the undo log
    at every commit and at the end of every completed rollback, so the
    log never holds more than one run's guarded stores and the
    per-store append cannot overflow the reserved area.  Trivially [Ok]
    when the image carries no guards. *)

val wcet : budget:int -> Cfg.program -> (unit, string list) result
(** Every region span (with its emitted checkpoint stores) fits the
    charge-cycle budget. *)
