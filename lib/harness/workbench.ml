open Gecko_isa
open Gecko_emi
module B = Builder
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Core = Gecko_core

let sense_app () =
  let b = B.program "sense_app" in
  let buf = B.space b "buf" ~words:16 () in
  let stats = B.space b "stats" ~words:2 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r3 0;
  B.block b "loop" ~loop_bound:4;
  (* Burst-sample four readings, then filter and store them. *)
  for _ = 1 to 4 do
    B.io_in b Reg.r1 0;
    B.bin b Instr.And Reg.r1 Reg.r1 (B.imm 1023);
    B.bin b Instr.Mul Reg.r2 Reg.r1 (B.imm 3);
    B.bin b Instr.Shr Reg.r2 Reg.r2 (B.imm 2);
    B.bin b Instr.Add Reg.r3 Reg.r3 (B.reg Reg.r2);
    B.st b (B.idx buf Reg.r0) Reg.r2;
    B.add b Reg.r0 Reg.r0 (B.imm 1)
  done;
  B.bin b Instr.Slt Reg.r4 Reg.r0 (B.imm 16);
  B.br b Instr.Nz Reg.r4 "loop" "report";
  B.block b "report";
  B.st b (B.at stats 0) Reg.r3;
  B.io_out b 1 Reg.r3;
  B.halt b;
  B.finish b

(* The memo tables are shared by the worker domains of the experiment
   pool — and, since the fleet simulator shards also compile through
   here, by every fleet campaign shard — so every lookup and insert
   holds [cache_mutex], one lock for all three tables: they are touched
   at run setup, never in the hot loop.  The computation also runs under
   the lock: it is cheap next to simulation, it is deterministic, and
   holding the lock keeps two workers from computing the same entry
   twice (the loser of the race counts a hit, so miss totals equal the
   number of distinct keys regardless of pool size).

   The compile and decode caches key a program on its [Asm.to_string]
   listing, which carries everything the pipeline reads: two different
   programs that share a name are two entries. *)
type ('k, 'v) table = {
  entries : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let cache_mutex = Mutex.create ()
let table () = { entries = Hashtbl.create 16; hits = 0; misses = 0 }

let memo t key compute =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt t.entries key with
      | Some v ->
          t.hits <- t.hits + 1;
          v
      | None ->
          t.misses <- t.misses + 1;
          let v = compute () in
          Hashtbl.replace t.entries key v;
          v)

let counts t = Mutex.protect cache_mutex (fun () -> (t.hits, t.misses))

let compile_cache : (string * Core.Scheme.t, Link.image * Core.Meta.t) table =
  table ()

let compiled_listing listing scheme (prog : Cfg.program) =
  memo compile_cache (listing, scheme) (fun () ->
      let p, meta = Core.Pipeline.compile scheme prog in
      (Link.link p, meta))

let compiled scheme prog = compiled_listing (Asm.to_string prog) scheme prog
let cache_counts () = counts compile_cache

(* [Decode.decode] is O(code size) and depends only on the image and the
   device's timing/energy constants, so it is keyed by (listing, scheme,
   device model); the machine validates provenance by physical equality
   on the image, which is stable here because [compiled] memoizes the
   link. *)
let decode_cache :
    (string * Core.Scheme.t * string, Gecko_machine.Decode.t) table =
  table ()

let decoded_listing listing scheme prog ~(board : Board.t) =
  let image, meta = compiled_listing listing scheme prog in
  let device = board.Board.device in
  let key = (listing, scheme, device.Gecko_devices.Device.model) in
  let dec =
    memo decode_cache key (fun () -> Gecko_machine.Decode.decode ~device image)
  in
  (image, meta, dec)

let decoded scheme prog ~board =
  decoded_listing (Asm.to_string prog) scheme prog ~board

let decode_counts () = counts decode_cache

(* Workload CFG builds are deterministic and keyed by catalogue name, so
   a fleet shard that elaborates thousands of devices re-runs each
   builder once per process instead of once per device.  The entry
   carries the program's listing too, so a device's compile and decode
   lookups serialise nothing. *)
let workload_cache : (string, Cfg.program * string) table = table ()

let workload_entry name =
  memo workload_cache name (fun () ->
      let w = Gecko_workloads.Workload.find name in
      let p = w.Gecko_workloads.Workload.build () in
      (p, Asm.to_string p))

let workload_program name = fst (workload_entry name)

let decoded_workload scheme name ~board =
  let prog, listing = workload_entry name in
  decoded_listing listing scheme prog ~board

(* --- experiment pool -------------------------------------------------- *)

(* The setting is only touched from the coordinating domain
   (experiments hand closures to the pool; they never call [pmap] from
   inside a task), so a plain ref suffices.  The pool itself is the
   process-wide one of that size ([Pool.shared]). *)
let requested_jobs : int option ref = ref None

let jobs () =
  match !requested_jobs with
  | Some n -> n
  | None -> Gecko_util.Pool.default_jobs ()

let set_jobs n =
  if n < 1 then invalid_arg "Workbench.set_jobs: jobs must be >= 1";
  requested_jobs := Some n

let pmap f xs =
  Gecko_util.Pool.map (Gecko_util.Pool.shared ~jobs:(jobs ())) f xs

let run_sense ?(opts = M.default_options) scheme ~board ~duration =
  let image, meta = compiled scheme (sense_app ()) in
  M.run ~board ~image ~meta
    {
      opts with
      limit = M.Sim_time duration;
      restart_on_halt = true;
      max_sim_time = duration +. 1.;
    }

let progress_rate ~board ~attack ~duration =
  let progress schedule =
    M.forward_progress
      (run_sense ~opts:{ M.default_options with schedule } Core.Scheme.Nvp
         ~board ~duration)
  in
  let schedule = Option.fold ~none:Schedule.empty ~some:Schedule.always attack in
  let r = progress schedule in
  let baseline = progress Schedule.empty in
  if baseline <= 0. then 0. else min 1.0 (r /. baseline)
