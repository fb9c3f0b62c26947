let nvm_write_cycles = 2
let nvm_read_cycles = 2

let instr_cycles = function
  | Instr.Li _ | Instr.Mov _ | Instr.Nop -> 1
  | Instr.Bin (op, _, _, _) -> (
      match op with
      | Instr.Mul -> 3
      | Instr.Div | Instr.Rem -> 8
      | Instr.Add | Instr.Sub | Instr.And | Instr.Or | Instr.Xor | Instr.Shl
      | Instr.Shr | Instr.Sra | Instr.Slt | Instr.Sle | Instr.Seq | Instr.Sne
        ->
          1)
  | Instr.Ld _ -> nvm_read_cycles
  | Instr.St _ -> nvm_write_cycles
  | Instr.In _ | Instr.Out _ -> 4
  | Instr.Ckpt _ -> nvm_write_cycles
  | Instr.CkptDyn _ ->
      (* Dynamic double buffering: index load + address arithmetic + write. *)
      nvm_read_cycles + 1 + nvm_write_cycles
  | Instr.LdSlot _ -> nvm_read_cycles
  | Instr.Boundary _ ->
      (* Commit: one NVM write of the boundary id.  The progress flag is
         written once per power cycle, amortized by the runtime. *)
      nvm_write_cycles

let term_cycles = function
  | Instr.Jmp _ -> 1
  | Instr.Br _ -> 1
  | Instr.Call _ -> 1 + nvm_write_cycles (* push return address *)
  | Instr.Ret -> 1 + nvm_read_cycles
  | Instr.Halt -> 1

let jit_isr_overhead_cycles = 24
let rollback_overhead_cycles = 130
