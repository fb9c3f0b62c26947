(** Linker: flatten a CFG program into an executable image.

    The image assigns every basic block a contiguous range of instruction
    slots (block body followed by one terminator slot) and lays out the
    non-volatile data segment:

    {v
      [ data spaces | call stack | JIT checkpoint area | GECKO slots | sys ]
    v}

    The JIT area holds 16 registers + PC + SP-shadow + ACK.  The GECKO area
    holds two colour slots per register (double buffering).  The sys area
    holds runtime cells (committed-boundary id, Ratchet buffer parity,
    mode/detection words). *)

type linked_instr =
  | Op of Instr.t
  | Ljmp of int
  | Lbr of Instr.cond * Reg.t * int * int
  | Lcall of int * int  (** callee entry index, return index. *)
  | Lret
  | Lhalt

type image = {
  prog : Cfg.program;
  code : linked_instr array;
  entry : int;
  block_index : (string * string, int) Hashtbl.t;
      (** (function, label) -> first slot of the block. *)
  space_base : int array;  (** space id -> base word address. *)
  data_words : int;
  stack_base : int;
  stack_words : int;
  jit_base : int;
  gecko_base : int;
  sys_base : int;
  nvm_words : int;
  boundary_index : (int, int) Hashtbl.t;
      (** boundary id -> slot of its [Boundary] instruction. *)
}

val stack_default : int
(** Default call-stack depth in words. *)

(** Offsets of runtime cells, relative to the area bases. *)
module Cells : sig
  val jit_regs : int
  (** Start of the 16 register words in the JIT area. *)

  val jit_pc : int
  val jit_ack : int
  val jit_words : int

  val gecko_slot : Reg.t -> int -> int
  (** [gecko_slot r colour] — offset of a checkpoint slot in the GECKO
      area. *)

  val gecko_words : int

  val sys_boundary : int
  (** Committed boundary id (+1; 0 = none). *)

  val sys_parity : int
  (** Ratchet double-buffer parity. *)

  val sys_ratchet_lo : int
  (** 2 * 16 words of Ratchet register slots. *)

  val sys_progress : int
  (** Completed-region flag for attack detection. *)

  val sys_ack_seen : int
  (** ACK value observed at the previous boot (for toggle detection). *)

  val sys_mode : int
  (** Persisted GECKO policy mode (survives outages). *)

  val sys_words : int
end

val link : ?stack_words:int -> ?guards:(string * string * int) list ->
  Cfg.program -> image
(** [guards] exists only so that callers written against the retired
    runtime speculation guards still compile: the compiler proves slot
    safety statically, the compiled [Meta.guards] is always empty, and
    a non-empty list raises [Invalid_argument]. *)

val resolve : image -> Instr.mref -> int array -> int
(** Absolute word address of a memory reference given the register-file
    contents (for dynamic displacements). *)

val disasm : image -> string
