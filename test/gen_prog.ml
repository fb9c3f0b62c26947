(* Random structured-program generator for property-based testing.

   Programs are built from phases (straight-line blocks, bounded counted
   loops with optional memory traffic, if-diamonds) over a read-write
   data space and a read-only table.  All registers are initialized up
   front and dynamic indices are masked into bounds, so every generated
   program is well-formed, deterministic and terminating.  Sensor input
   ([In]) is excluded: replayed reads legitimately return fresh samples,
   which would make golden-state comparison meaningless. *)

open Gecko_isa
module B = Builder
module Rng = Gecko_util.Rng

let n_regs = 10 (* r0..r9 as data registers; r10-r12 for loop bookkeeping *)

let reg rng = Reg.of_int (Rng.int rng n_regs)

let random_op rng b data table =
  match Rng.int rng 8 with
  | 0 -> B.li b (reg rng) (Rng.range rng (-1000) 1000)
  | 1 ->
      let ops =
        [| Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor;
           Instr.Shl; Instr.Shr; Instr.Sra; Instr.Slt; Instr.Div; Instr.Rem |]
      in
      let op = ops.(Rng.int rng (Array.length ops)) in
      let src2 =
        if Rng.bool rng then B.reg (reg rng)
        else B.imm (Rng.range rng (-64) 64)
      in
      B.bin b op (reg rng) (reg rng) src2
  | 2 -> B.ld b (reg rng) (B.at data (Rng.int rng 16))
  | 3 -> B.ld b (reg rng) (B.at table (Rng.int rng 16))
  | 4 ->
      (* Dynamic load with a masked index. *)
      let idx = Reg.r11 in
      B.bin b Instr.And idx (reg rng) (B.imm 15);
      B.ld b (reg rng) (B.idx data idx)
  | 5 -> B.st b (B.at data (Rng.int rng 16)) (reg rng)
  | 6 ->
      let idx = Reg.r11 in
      B.bin b Instr.And idx (reg rng) (B.imm 15);
      B.st b (B.idx data idx) (reg rng)
  | _ -> B.mov b (reg rng) (reg rng)

let straight rng b data table =
  for _ = 1 to 3 + Rng.int rng 8 do
    random_op rng b data table
  done

(* A helper function for [~calls:true] programs: an optional counted
   loop over the shared data, then [ret].  Helpers write only the data
   registers and the r11 index mask, and count their loops in r13 (r14
   the bound test), so the caller's loop counter r10 survives every
   call and loops still terminate. *)
let helper rng b data table k =
  B.func b (Printf.sprintf "f%d" k);
  B.block b (Printf.sprintf "f%d_entry" k);
  straight rng b data table;
  if Rng.bool rng then begin
    let bound = 2 + Rng.int rng 6 in
    let i = Reg.of_int 13 and t = Reg.of_int 14 in
    let hdr = Printf.sprintf "f%d_loop" k in
    let out = Printf.sprintf "f%d_done" k in
    B.li b i 0;
    B.block b hdr ~loop_bound:bound;
    straight rng b data table;
    let slot = Rng.int rng 16 in
    B.ld b t (B.at data slot);
    B.add b t t (B.reg i);
    B.st b (B.at data slot) t;
    B.add b i i (B.imm 1);
    B.bin b Instr.Slt t i (B.imm bound);
    B.br b Instr.Nz t hdr out;
    B.block b out
  end;
  B.ret b

(* A same-block store...load run closed by an [Out]: [st y; st x], a
   long stretch of divisions, then [ld x; add; st x; ld y; out].  Every
   point from just after [st y] to [ld y] lies in a WARAW-protected
   interval, and the closing [Out]'s leading boundary ends the span, so
   a WCET split at budget 300 finds no unprotected cut point.  It falls
   back to a point that breaks [x]'s exemption, and the split's WAR
   re-cut must then put a boundary before the second [st x].  An
   opening [Out] starts the run's region. *)
let split_run rng b data =
  let x = Rng.int rng 16 in
  let y = (x + 1 + Rng.int rng 15) mod 16 in
  B.io_out b 1 (reg rng);
  B.st b (B.at data y) (reg rng);
  B.st b (B.at data x) (reg rng);
  for _ = 1 to 40 + Rng.int rng 20 do
    let op = if Rng.bool rng then Instr.Div else Instr.Rem in
    B.bin b op (reg rng) (reg rng) (B.imm (1 + Rng.int rng 64))
  done;
  let t = reg rng in
  B.ld b t (B.at data x);
  B.add b t t (B.imm 1);
  B.st b (B.at data x) t;
  let u = reg rng in
  B.ld b u (B.at data y);
  B.io_out b 1 u

(* [calls] (default [false]) adds 1-3 helper functions and phases that
   call them, some from inside a counted loop: the interprocedural shapes
   (callee entry checkpoints overwriting slots a caller's boundary
   restores) that make the speculative pipeline force-keep reused slots.
   [runs] (default [false]) ends [main] with a {!split_run}.  Without
   either the generator's output is unchanged. *)
let generate ?(calls = false) ?(runs = false) seed =
  let rng = Rng.create seed in
  let b = B.program (Printf.sprintf "rand_%d" seed) in
  let data =
    B.space b "data" ~words:16
      ~init:(Array.init 16 (fun i -> (seed + i) land 0xFF))
      ()
  in
  let table =
    B.space b "table" ~words:16
      ~init:(Array.init 16 (fun i -> (i * 37) land 0xFF))
      ()
  in
  let helpers = if calls then 1 + Rng.int rng 3 else 0 in
  let call_some p =
    let k = Rng.int rng helpers in
    let ret = Printf.sprintf "ret%d_%d" p k in
    B.call b (Printf.sprintf "f%d" k) ~ret;
    B.block b ret
  in
  B.func b "main";
  B.block b "entry";
  for i = 0 to n_regs - 1 do
    B.li b (Reg.of_int i) (Rng.range rng 0 255)
  done;
  let phases = 2 + Rng.int rng 4 in
  for p = 0 to phases - 1 do
    match Rng.int rng (if calls then 4 else 3) with
    | 0 -> straight rng b data table
    | 1 ->
        (* Counted loop. *)
        let bound = 2 + Rng.int rng 8 in
        let i = Reg.r10 and t = Reg.r12 in
        B.li b i 0;
        let hdr = Printf.sprintf "loop%d" p in
        let out = Printf.sprintf "after%d" p in
        B.block b hdr ~loop_bound:bound;
        straight rng b data table;
        if calls && Rng.bool rng then call_some p;
        (* Occasional read-modify-write to force WAR structure. *)
        if Rng.bool rng then begin
          let slot = Rng.int rng 16 in
          B.ld b t (B.at data slot);
          B.add b t t (B.imm 1);
          B.st b (B.at data slot) t
        end;
        B.add b i i (B.imm 1);
        B.bin b Instr.Slt t i (B.imm bound);
        B.br b Instr.Nz t hdr out;
        B.block b out
    | 2 ->
        (* If-diamond. *)
        let t = Reg.r12 in
        let th = Printf.sprintf "then%d" p
        and el = Printf.sprintf "else%d" p
        and j = Printf.sprintf "join%d" p in
        B.bin b Instr.And t (reg rng) (B.imm 1);
        B.br b Instr.Nz t th el;
        B.block b th;
        straight rng b data table;
        B.jmp b j;
        B.block b el;
        straight rng b data table;
        B.block b j;
        if Rng.bool rng then B.io_out b 1 (reg rng)
    | _ ->
        (* Straight-line call. *)
        straight rng b data table;
        call_some p
  done;
  if runs then split_run rng b data;
  B.halt b;
  for k = 0 to helpers - 1 do
    helper rng b data table k
  done;
  B.finish b

(* Call-bearing on half the seeds: those with bit 2 set, which is
   independent of the low bits the property tests draw schemes and
   boards from. *)
let generate_mixed seed = generate ~calls:(seed land 4 <> 0) seed
