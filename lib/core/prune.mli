(** Checkpoint pruning with recovery-block construction (Sections VI-C/VI-E).

    A candidate checkpoint of register [r] at boundary [b] can be pruned
    iff a {e recovery block} — a backward program slice — can reconstruct
    [r]'s value-at-[b] at recovery time from safe sources only:

    - constants ([Li]);
    - loads from locations no store in the program can clobber;
    - registers that remain checkpointed at [b] itself (slot reads).

    Soundness conditions enforced during data-dependence backtracking:
    every slice instruction's definition must dominate [b] (control-flow
    integrity of the slice), and every operand must have the {e same}
    unique reaching definition at its use site and at [b] (its value is
    unchanged over the gap, so recomputing with values-at-[b] is exact).
    Slices are capped in size; oversized candidates are kept. *)

open Gecko_isa

type node =
  | Nslot of Reg.t
      (** Read the register's checkpoint slot at this boundary (colour
          resolved at emission). *)
  | Ninstr of Instr.t  (** Re-execute an original instruction verbatim. *)

type decision =
  | Keep
      (** The boundary emits the register's checkpoint store.  Which of
          its stores may share a slot colour is the colouring pass's
          decision alone ({!Spans.edges}). *)
  | Reuse of int
      (** Redundant-checkpoint elimination: the register's value is
          provably unchanged since a dominating boundary that still
          checkpoints it; the restore references the owner's slot and no
          store is emitted here.  This removes the per-iteration
          re-checkpointing of loop-invariant registers. *)
  | Prune of node list

type result = (int, (Reg.t * decision) list) Hashtbl.t
(** Boundary id -> per-candidate decision (in ascending register order). *)

val max_slice_nodes : int

type memo
(** Phase-1 (slice) decisions per (boundary id, forced-keep set), with
    tallies.  A site's slice decisions depend only on inputs that a
    boundary insertion leaves alone or shifts consistently (reaching
    definitions, dominance between points, definition sites, read-only
    locations, the site's live-ins), so one memo serves every colouring
    round and settle attempt of one [Pipeline.compile].  It must not
    outlive the [Candidates.facts] it was filled under. *)

val memo : unit -> memo

val memo_counts : memo -> int * int
(** [(sliced, hits)]: registers sliced by {!analyze_with} calls given
    this memo (one recovery-slice attempt each), and sites whose
    phase-1 decisions came from the memo instead. *)

val analyze_with :
  force_keep:(int -> Reg.Set.t) ->
  memo:memo ->
  slices:bool ->
  reuse:bool ->
  Candidates.t ->
  result
(** The one pruning entry point; [slices] and [reuse] enable the
    recovery-block slicing and the redundant-checkpoint reuse
    independently (the ablation study disables one or the other, and
    GECKO w/o pruning is both off: every candidate [Keep]).

    [force_keep] maps a boundary id to registers that must stay plain
    [Keep].  The pipeline passes the colouring's repair boundaries here
    so their fresh stores are known {e during} analysis and can never be
    targeted or converted by the reuse pass, and adds every reuse the
    window-clobber scan rejected.

    Reuse is optimistic: a reused restore reads the slot of a dominating
    owner, and nothing here proves that no other store of the register
    overwrites that slot inside the reuser's crash window.  The
    pipeline checks that after emission ({!Verify.slot_clobbers}) and
    force-keeps each clobbered reuse, so the restore reads a slot of its
    own.

    [memo] serves and records phase-1 decisions; it is consulted only
    when [slices] is on.  Phase 2 (reuse) always runs afresh, in one
    pass: a new repair site changes which sites dominate which.

    The program must be hazard-free ({!Regions.form}): a slice's loads
    and a reused slot are sound only if re-execution is idempotent. *)
