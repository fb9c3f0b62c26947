(** Compiled recovery metadata consumed by the runtime.

    For every region boundary, the machine needs to know how to
    reconstruct the register file when rolling back to it: which registers
    are restored from which colour slot, and which are recomputed by a
    recovery block.  For Ratchet, all 16 registers are restored from the
    parity-selected buffer, so per-boundary lists are unnecessary. *)

open Gecko_isa

type restore = {
  r_reg : Reg.t;
  r_color : int;
  r_owned : bool;
      (** True when this boundary emits the store itself; false when the
          restore references a dominating boundary's still-valid slot
          (redundant-checkpoint elimination). *)
  r_stable : int option;
      (** Stability class for stores whose value is identical at every
          crossing; same-class stores may legally share a slot colour. *)
}

type recovery = { g_reg : Reg.t; g_slice : Instr.t list }
(** The slice executes in dependence order in a scratch register window;
    its last write to [g_reg] is the reconstructed live-in value. *)

type binfo = {
  b_id : int;
  b_func : string;
  restores : restore list;
  recoveries : recovery list;
}

type stats = {
  boundaries : int;
  candidates : int;  (** live-in checkpoint candidates before pruning *)
  kept : int;  (** checkpoint stores actually emitted *)
  pruned : int;  (** stores removed: reused + sliced *)
  reused : int;
  recovery_blocks : int;
  recovery_instrs : int;
  lookup_table_instrs : int;
      (** dispatch-table footprint, modelled per the paper (~130). *)
}

type t = {
  scheme : Scheme.t;
  infos : (int, binfo) Hashtbl.t;
  stats : stats;
  guards : (string * string * int) list;
      (** Speculation guards: [(fname, block label, instr idx)] of every
          owned checkpoint store that may overwrite, inside some
          boundary's crash window, a slot that boundary's recovery
          state reads — the overwrites the optimistic reuse pass does
          not prove harmless ({!Verify.slot_clobbers}).
          The linker marks these code slots so the runtime appends an
          undo-log entry (the slot cell's old word) before each such
          store; rollback replays the log before running restores.
          Empty outside [Speculative] mode. *)
}

val empty : Scheme.t -> t

val boundary_info : t -> int -> binfo option

val pp_stats : Format.formatter -> stats -> unit
