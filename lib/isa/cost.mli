(** Cycle cost model, shared by the WCET analysis and the machine.

    Costs approximate an MSP430-class in-order core running from FRAM:
    single-cycle ALU, two-cycle memory, slow multiply/divide (no hardware
    divider), and a small fixed cost for the runtime pseudo-ops. *)

val instr_cycles : Instr.t -> int
val term_cycles : Instr.terminator -> int

val jit_isr_overhead_cycles : int
(** ISR entry/exit and peripheral-state bookkeeping. *)

val nvm_write_cycles : int
val nvm_read_cycles : int

val rollback_overhead_cycles : int
(** GECKO recovery-block lookup-table dispatch cost at rollback. *)
