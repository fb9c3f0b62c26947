(** Control-flow-graph program representation.

    A {!program} is a set of functions, each a list of basic blocks.  Blocks
    hold a mutable instruction list so compiler passes can insert
    checkpoint stores and region boundaries in place.  Loop-header blocks
    may carry an iteration bound.  The assembly syntax and the printers
    carry it and the fault-injection shrinker shrinks it, but no
    analysis reads it: the WCET analysis needs no bound, because every
    loop header is a region boundary. *)

type block = {
  label : string;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
  mutable loop_bound : int option;
      (** If this block is a natural-loop header, the maximum trip count
          (supplied by the program builder, as MCU toolchains require).
          Carried through, not analysed. *)
}

type func = {
  fname : string;
  mutable blocks : block list;  (** Layout order; the entry block is first. *)
}

type program = {
  pname : string;
  mutable funcs : func list;
  main : string;
  spaces : Instr.space list;
  init_data : (int * int array) list;
      (** Initial contents per space id; missing spaces start zeroed. *)
}

val entry_block : func -> block
val find_func : program -> string -> func
val find_block : func -> string -> block

val successors : Instr.terminator -> string list
(** Intra-procedural successors: a [Call] flows to its return block, [Ret]
    and [Halt] have none. *)

val iter_instrs : program -> (Instr.t -> unit) -> unit

val instr_count : program -> int
(** Static instruction count, terminators excluded. *)

val count_matching : program -> (Instr.t -> bool) -> int

val find_space : program -> string -> Instr.space

val validate : program -> (unit, string) result
(** Structural checks: labels resolve, entry blocks exist, call targets
    exist, constant displacements are in bounds, space ids are unique,
    the main function exists, and every function's control flow has the
    shape region formation needs — each block reachable from the entry,
    each cycle entered only through its header (a reducible graph).  An
    error names the offending function and block. *)

val pp_func : Format.formatter -> func -> unit
val pp : Format.formatter -> program -> unit
