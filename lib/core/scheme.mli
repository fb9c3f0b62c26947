(** The power-failure-recovery schemes compared in the evaluation. *)

type t =
  | Nvp  (** JIT checkpointing only (CTPL-style); the baseline. *)
  | Ratchet
      (** Compiler-directed rollback recovery: idempotent regions with
          full register checkpointing and dynamic double buffering. *)
  | Gecko_noprune  (** GECKO without the checkpoint-pruning optimization. *)
  | Gecko  (** Full GECKO: pruning + recovery blocks + 2-colouring. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val all : t list
