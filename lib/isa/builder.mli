(** Imperative CFG construction API.

    Usage pattern:
    {[
      let b = Builder.program "crc32" in
      let data = Builder.space b "data" ~words:64 () in
      Builder.func b "main";
      Builder.li b r0 0;
      Builder.block b "loop" ~loop_bound:64;
      ...
      Builder.br b Nz r1 "loop" "done_";
      Builder.block b "done_";
      Builder.halt b;
      Builder.finish b
    ]}

    Starting a new block while the current one has no terminator inserts an
    implicit fall-through [Jmp]. *)

type t

val program : string -> t

val space : t -> string -> words:int -> ?init:int array -> unit -> Instr.space
(** Declare a data allocation.  [init] (padded with zeroes) sets the initial
    NVM contents. *)

val func : t -> string -> unit
(** Begin a function; the first block emitted becomes its entry.  The first
    function declared is the program's main. *)

val block : t -> ?loop_bound:int -> string -> unit
(** Begin a basic block.  [loop_bound] marks a natural-loop header with its
    maximum trip count, which the block records and no analysis
    reads. *)

(** {2 Operand helpers} *)

val imm : int -> Instr.operand
val reg : Reg.t -> Instr.operand

val at : Instr.space -> int -> Instr.mref
(** Constant-displacement reference. *)

val idx : Instr.space -> Reg.t -> Instr.mref
(** Register-indexed reference. *)

(** {2 Instruction emitters} *)

val li : t -> Reg.t -> int -> unit
val mov : t -> Reg.t -> Reg.t -> unit
val bin : t -> Instr.binop -> Reg.t -> Reg.t -> Instr.operand -> unit
val add : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val sub : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val mul : t -> Reg.t -> Reg.t -> Instr.operand -> unit
val ld : t -> Reg.t -> Instr.mref -> unit
val st : t -> Instr.mref -> Reg.t -> unit
val io_in : t -> Reg.t -> int -> unit
val io_out : t -> int -> Reg.t -> unit
val nop : t -> unit

(** {2 Terminators} *)

val jmp : t -> string -> unit
val br : t -> Instr.cond -> Reg.t -> string -> string -> unit
val call : t -> string -> ret:string -> unit
val ret : t -> unit
val halt : t -> unit

val finish : t -> Cfg.program
(** Close the program and validate it; raises [Invalid_argument] with the
    validation message on malformed programs. *)
