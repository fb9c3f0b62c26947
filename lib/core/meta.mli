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
      (** Always [[]].  The pipeline proves slot safety statically (a
          reuse whose slot is clobbered in its crash window is
          force-kept), so no store needs a runtime guard; the field
          stays so that code written against the retired guards, such
          as the [bench/perf] harness, still compiles. *)
}

val empty : Scheme.t -> t

val boundary_info : t -> int -> binfo option

val pp_stats : Format.formatter -> stats -> unit
