(** Final verification passes run after compilation (and used heavily by
    the property-based tests).

    These are independent soundness gates: they re-derive their property
    from the emitted program (and its metadata) rather than trusting the
    passes that were supposed to establish it. *)

open Gecko_isa

val idempotence : Cfg.program -> (unit, string list) result
(** No may-alias memory anti-dependence survives without a boundary
    between the load and the store (WARAW-exempt pairs aside): regions
    are idempotent by construction and re-execution after a rollback is
    deterministic without memory replay. *)

val coloring : Cfg.program -> Meta.t -> (unit, string list) result
(** No two span-adjacent boundaries ({!Spans.edges} over the owned
    stores) checkpoint the same register into the same slot colour,
    unless the two stores write the same word: no path of the span
    between them defines the register, or both share a stability
    class. *)

type scan
(** One window-clobber scan of a program and its metadata, read by both
    {!slot_clobbers} and {!slots}.  The pipeline's settle loop ends on a
    scan with no clobbers and hands that same scan to its [slots] gate,
    so the final program is not scanned twice. *)

val scan : Cfg.program -> Meta.t -> scan

val slot_clobbers : scan -> (int * Reg.t) list
(** The clobbered slot reads of the scanned program, sorted: [(b, r)]
    when some checkpoint store overwrites, inside boundary [b]'s crash
    window and without a value-equality or stability exemption, a slot
    of [r] that [b]'s committed recovery state reads.  The pipeline
    force-keeps each such read (a reused restore becomes an owned store)
    and colours again until the list is empty. *)

val slots : scan -> (unit, string list) result
(** Window-clobber gate: no slot read by a boundary's committed recovery
    state (restores — owned or reused — and recovery-block slot loads) is
    overwritten by a checkpoint store inside that boundary's crash
    window, unless the overwrite provably stores the identical word
    (every window path reaching it leaves the register unchanged, or
    writer and read share a stability class).  Derived directly from the
    emitted instruction stream; in particular it rejects a reused
    restore whose owner's slot a later (e.g. repair) boundary
    clobbers. *)

val io_commit : Cfg.program -> (unit, string list) result
(** Atomic io_log commit: every [Out] is followed in its block (modulo
    checkpoint stores) by the boundary that atomically commits its
    staged io_log record. *)

val wcet : budget:int -> Cfg.program -> (unit, string list) result
(** Every region span (with its emitted checkpoint stores) fits the
    charge-cycle budget. *)
