(* Pre-decoded instruction stream: the only instruction form the
   machine executes.

   A one-time pass lowers [Link.image] into a flat array of micro-ops
   with every per-instruction decision resolved ahead of time:

   - operands are plain ints (register indices, absolute NVM addresses,
     branch-target slots) — no [Link.resolve], no [Reg.to_int], no
     [Cost.instr_cycles] match at run time;
   - per-slot [dt] (wall advance) and [en] (capacitor drain, including
     NVM access energy) are precomputed here: this is the machine's one
     cost table, charged by the block dispatcher and the per-instruction
     checked step alike;
   - straight-line runs between control-flow split points are grouped
     into basic blocks, with per-slot *suffix* energy/time totals so the
     machine can prove, in O(1) at any entry point (jump target, JIT
     restore, rollback resume), that a whole block can run without any
     per-instruction brownout / monitor / attack-window / limit check
     firing;
   - every slot holds the lowering of its own linked instruction, so the
     dispatcher retires exactly one instruction per micro-op and control
     may enter or stop at any slot (a restore or return can land
     anywhere).

   Boundary commits and Halt have data-dependent cost (progress flag,
   restart) and power/mode side effects, so they are "solo" slots, each
   a block of its own.  The machine dispatches them by kind and runs
   them through their own bodies on the checked step (a steady-state
   commit through the block guard first).

   The decode depends on the *device* timing/energy constants (cycle
   time, energy per cycle, NVM access energies) but not on the
   capacitor, harvester or monitor — those stay runtime state — so one
   decode is shared by every board built around the same device.  It
   records those constants, and [fits] holds a cached decode to them:
   a run on a device with other constants decodes afresh. *)

open Gecko_isa
module Device = Gecko_devices.Device

type mop =
  | M_li of int * int
  | M_mov of int * int
  | M_bin_rr of Instr.binop * int * int * int  (* op, d, a, b *)
  | M_bin_ri of Instr.binop * int * int * int  (* op, d, a, imm *)
  | M_ld of int * int  (* d, absolute address *)
  | M_ld_dyn of int * int * int  (* d, space base, index reg *)
  | M_st of int * int  (* absolute address, s *)
  | M_st_dyn of int * int * int  (* space base, index reg, s *)
  | M_in of int * int  (* d, port *)
  | M_out of int * int  (* port, s *)
  | M_nop
  | M_ckpt of int * int  (* absolute slot cell, src *)
  | M_ckptdyn of int * int * int  (* src, parity address, cell base *)
  | M_ldslot of int * int  (* d, absolute slot cell *)
  | M_boundary of int  (* solo: data-dependent cost and mode effects *)
  | M_jmp of int
  | M_br of Instr.cond * int * int * int  (* cond, reg, then, else *)
  | M_call of int * int  (* callee entry, return slot *)
  | M_ret
  | M_halt  (* solo: completion/restart has data-dependent cost *)

(* The device constants a decode's costs were computed from. *)
type consts = {
  cycle_time : float;
  epc : float;  (* active energy per cycle *)
  read_e : float;  (* per NVM word read *)
  write_e : float;  (* per NVM word write *)
}

let consts_of device =
  {
    cycle_time = Device.cycle_time device;
    epc = Device.energy_per_cycle device;
    read_e = device.Device.core.Device.nvm_read_energy;
    write_e = device.Device.core.Device.nvm_write_energy;
  }

type t = {
  image : Link.image;  (* provenance *)
  consts : consts;  (* provenance: the device side *)
  ops : mop array;
  dt : float array;  (* wall advance of the slot's own instruction *)
  en : float array;  (* capacitor drain, incl. NVM access energy *)
  cyc : int array;  (* cycle count, for app/instrumentation accounting *)
  blk_end : int array;  (* slot -> exclusive end of its basic block *)
  e_sfx : float array;  (* energy from slot to block end *)
  dt_sfx : float array;  (* wall time from slot to block end *)
  n_ops : int;
}

(* Per-instruction cost triple (cycles, NVM reads, NVM writes): the
   machine's whole cost model apart from the runtime's own work
   (checkpoint ISR, rollback, restore, the once-per-power-cycle progress
   flag), which [Machine] charges outside any slot. *)
let costs = function
  | Link.Op i ->
      let c = Cost.instr_cycles i in
      let r, w =
        match i with
        | Instr.Ld _ | Instr.LdSlot _ -> (1, 0)
        | Instr.St _ | Instr.Ckpt _ -> (0, 1)
        | Instr.CkptDyn _ -> (1, 1)
        | Instr.Boundary _ -> (0, 1)
        | Instr.Li _ | Instr.Mov _ | Instr.Bin _ | Instr.In _ | Instr.Out _
        | Instr.Nop ->
            (0, 0)
      in
      (c, r, w)
  | Link.Ljmp _ | Link.Lbr _ | Link.Lhalt -> (1, 0, 0)
  | Link.Lcall _ -> (Cost.term_cycles (Instr.Call ("", "")), 0, 1)
  | Link.Lret -> (Cost.term_cycles Instr.Ret, 1, 0)

let decode ~device (image : Link.image) =
  let n = Array.length image.Link.code in
  let consts = consts_of device in
  let { cycle_time; epc; read_e; write_e } = consts in
  let ri = Reg.to_int in
  let gecko_cell r colour =
    image.Link.gecko_base + Link.Cells.gecko_slot r colour
  in
  let sys_cell off = image.Link.sys_base + off in
  let abs_of (m : Instr.mref) =
    let base = image.Link.space_base.(m.Instr.space.Instr.space_id) in
    match m.Instr.disp with
    | Instr.Dconst c -> `Abs (base + c)
    | Instr.Dreg r -> `Dyn (base, ri r)
  in
  let ops =
    Array.map
      (function
        | Link.Op i -> (
            match i with
            | Instr.Li (d, v) -> M_li (ri d, v)
            | Instr.Mov (d, s) -> M_mov (ri d, ri s)
            | Instr.Bin (op, d, a, Instr.Oreg b) ->
                M_bin_rr (op, ri d, ri a, ri b)
            | Instr.Bin (op, d, a, Instr.Oimm v) -> M_bin_ri (op, ri d, ri a, v)
            | Instr.Ld (d, m) -> (
                match abs_of m with
                | `Abs a -> M_ld (ri d, a)
                | `Dyn (base, r) -> M_ld_dyn (ri d, base, r))
            | Instr.St (m, s) -> (
                match abs_of m with
                | `Abs a -> M_st (a, ri s)
                | `Dyn (base, r) -> M_st_dyn (base, r, ri s))
            | Instr.In (d, port) -> M_in (ri d, port)
            | Instr.Out (port, s) -> M_out (port, ri s)
            | Instr.Nop -> M_nop
            | Instr.Ckpt (src, colour) -> M_ckpt (gecko_cell src colour, ri src)
            | Instr.CkptDyn src ->
                (* Writes ratchet cell for parity (1 - p):
                   cell = base + (1 - p) * Reg.count, p read at run time. *)
                M_ckptdyn
                  ( ri src,
                    sys_cell Link.Cells.sys_parity,
                    sys_cell Link.Cells.sys_ratchet_lo + ri src )
            | Instr.LdSlot (d, src, colour) ->
                M_ldslot (ri d, gecko_cell (Reg.of_int src) colour)
            | Instr.Boundary id -> M_boundary id)
        | Link.Ljmp t -> M_jmp t
        | Link.Lbr (c, r, t, e) -> M_br (c, ri r, t, e)
        | Link.Lcall (target, ret) -> M_call (target, ret)
        | Link.Lret -> M_ret
        | Link.Lhalt -> M_halt)
      image.Link.code
  in
  let dt = Array.make n 0. in
  let en = Array.make n 0. in
  let cyc = Array.make n 0 in
  for i = 0 to n - 1 do
    let c, r, w = costs image.Link.code.(i) in
    cyc.(i) <- c;
    (* [Machine.spend]/[Machine.nvm_extra]'s expressions, which are also
       the frozen reference interpreter's: its energy books must match
       the machine's bit for bit. *)
    dt.(i) <- float_of_int c *. cycle_time;
    en.(i) <-
      (float_of_int c *. epc)
      +. ((float_of_int r *. read_e) +. (float_of_int w *. write_e))
  done;
  (* Block split points: anywhere control can be required to stop or
     enter — jump/branch/call/return targets, rollback resume points
     (boundary slot + 1), the slot after any terminator, and solo slots
     (plus the slot after them). *)
  let start = Array.make (n + 1) false in
  start.(n) <- true;
  let mark i = if i >= 0 && i <= n then start.(i) <- true in
  mark image.Link.entry;
  Hashtbl.iter (fun _ pc -> mark (pc + 1)) image.Link.boundary_index;
  Array.iteri
    (fun i op ->
      match op with
      | M_jmp t ->
          mark t;
          mark (i + 1)
      | M_br (_, _, t, e) ->
          mark t;
          mark e;
          mark (i + 1)
      | M_call (target, ret) ->
          mark target;
          mark ret;
          mark (i + 1)
      | M_ret -> mark (i + 1)
      | M_boundary _ | M_halt ->
          mark i;
          mark (i + 1)
      | _ -> ())
    ops;
  let blk_end = Array.make n 0 in
  for i = n - 1 downto 0 do
    blk_end.(i) <- (if start.(i + 1) then i + 1 else blk_end.(i + 1))
  done;
  (* Suffix totals within each block (a solo slot's block is itself). *)
  let e_sfx = Array.make n 0. in
  let dt_sfx = Array.make n 0. in
  for i = n - 1 downto 0 do
    if blk_end.(i) = i + 1 then begin
      e_sfx.(i) <- en.(i);
      dt_sfx.(i) <- dt.(i)
    end
    else begin
      e_sfx.(i) <- en.(i) +. e_sfx.(i + 1);
      dt_sfx.(i) <- dt.(i) +. dt_sfx.(i + 1)
    end
  done;
  {
    image;
    consts;
    ops;
    dt;
    en;
    cyc;
    blk_end;
    e_sfx;
    dt_sfx;
    n_ops = n;
  }

(* [d] was decoded from [image] for a device with [device]'s timing and
   energy constants: the only decode a run of that image on that device
   may use.  Float constants compare by value, so two catalogue entries
   with equal constants share a decode. *)
let fits d ~device image =
  d.image == image
  &&
  let c = consts_of device in
  Float.equal d.consts.cycle_time c.cycle_time
  && Float.equal d.consts.epc c.epc
  && Float.equal d.consts.read_e c.read_e
  && Float.equal d.consts.write_e c.write_e

(* Share of slots holding a fused superinstruction: always [0.], since
   every slot lowers its own instruction.  Kept for the benchmark's
   [machine.fused_share] metric, which reads it. *)
let fused_share (_ : t) = 0.
