(** Indexed view of a function's control-flow graph.

    Compiler passes mutate block instruction lists in place; the view
    shares the block records, so block-level facts derived from it
    (successors, dominators, reachability) stay valid until a pass adds
    or removes blocks.  Facts indexed by instruction position must be
    recomputed after every insertion. *)

open Gecko_isa

type t = {
  func : Cfg.func;
  blocks : Cfg.block array;  (** Layout order; index 0 is the entry. *)
  index_of : (string, int) Hashtbl.t;
  succ : int list array;
  pred : int list array;
}

val of_func : Cfg.func -> t

val n_blocks : t -> int

val block_id : t -> string -> int

val rpo : t -> int array
(** Reverse postorder over blocks reachable from the entry. *)

(** A program point: instruction [idx] within block [blk] ([idx] may equal
    the instruction count, denoting the terminator position). *)
type point = { blk : int; idx : int }

val point_compare : point -> point -> int

val instr_at : t -> point -> Instr.t option
(** [None] at the terminator position. *)

val pp_point : t -> Format.formatter -> point -> unit
