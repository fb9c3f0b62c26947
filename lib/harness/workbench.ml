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

(* The memo table is shared by the worker domains of the experiment
   pool — and, since the fleet simulator shards also compile through
   here, by every fleet campaign shard — so every lookup and insert
   holds [cache_mutex].  Compilation itself also runs under the lock: it
   is cheap next to simulation, it is deterministic, and holding the
   lock keeps two workers from compiling the same program twice (the
   loser of the race counts a hit, so miss totals equal the number of
   distinct keys regardless of pool size). *)
let cache : (string * Core.Scheme.t, Link.image * Core.Meta.t) Hashtbl.t =
  Hashtbl.create 16

let cache_mutex = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

let compiled scheme (prog : Cfg.program) =
  let key = (prog.Cfg.pname, scheme) in
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache key with
      | Some v ->
          incr cache_hits;
          v
      | None ->
          incr cache_misses;
          let p, meta = Core.Pipeline.compile scheme prog in
          let v = (Link.link p, meta) in
          Hashtbl.replace cache key v;
          v)

let cache_counts () =
  Mutex.protect cache_mutex (fun () -> (!cache_hits, !cache_misses))

(* Decoded-stream cache, beside the compile cache.  [Decode.decode] is
   O(code size) and depends only on the image and the device's
   timing/energy constants, so it is keyed by (program, scheme, device
   model); the machine validates provenance by physical equality on the
   image, which is stable here because [compiled] memoizes the link.
   Shares [cache_mutex]: both caches are touched at run setup, never in
   the hot loop. *)
let decode_cache :
    (string * Core.Scheme.t * string, Gecko_machine.Decode.t) Hashtbl.t =
  Hashtbl.create 16

let decode_hits = ref 0
let decode_misses = ref 0

let decoded scheme (prog : Cfg.program) ~(board : Board.t) =
  let image, meta = compiled scheme prog in
  let device = board.Board.device in
  let key = (prog.Cfg.pname, scheme, device.Gecko_devices.Device.model) in
  let dec =
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt decode_cache key with
        | Some d ->
            incr decode_hits;
            d
        | None ->
            incr decode_misses;
            let d = Gecko_machine.Decode.decode ~device image in
            Hashtbl.replace decode_cache key d;
            d)
  in
  (image, meta, dec)

let decode_counts () =
  Mutex.protect cache_mutex (fun () -> (!decode_hits, !decode_misses))

(* Workload CFG builds are deterministic and keyed by catalogue name, so
   a fleet shard that elaborates thousands of devices re-runs each
   builder once per process instead of once per device.  Shares
   [cache_mutex] with the compile/decode caches for the same reason they
   do: touched at run setup only. *)
let workload_cache : (string, Gecko_isa.Cfg.program) Hashtbl.t =
  Hashtbl.create 16

let workload_program name =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt workload_cache name with
      | Some p -> p
      | None ->
          let p = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
          Hashtbl.replace workload_cache name p;
          p)

let decoded_workload scheme name ~board =
  decoded scheme (workload_program name) ~board

let record_cache_metrics reg =
  let hits, misses = cache_counts () in
  let module Mx = Gecko_obs.Metrics in
  let set name v =
    let c = Mx.counter reg name in
    Mx.incr ~by:(v - Mx.counter_value c) c
  in
  set "workbench.compile_cache_hits" hits;
  set "workbench.compile_cache_misses" misses;
  let dhits, dmisses = decode_counts () in
  set "workbench.decode_cache_hits" dhits;
  set "workbench.decode_cache_misses" dmisses

(* --- experiment pool -------------------------------------------------- *)

(* The pool and its setting are only touched from the coordinating
   domain (experiments hand closures to the pool; they never call
   [pmap] from inside a task), so plain refs suffice. *)
let requested_jobs : int option ref = ref None
let current_pool : Gecko_util.Pool.t option ref = ref None

let jobs () =
  match !requested_jobs with
  | Some n -> n
  | None -> Gecko_util.Pool.default_jobs ()

let set_jobs n =
  if n < 1 then invalid_arg "Workbench.set_jobs: jobs must be >= 1";
  (match !current_pool with
  | Some p when Gecko_util.Pool.jobs p <> n ->
      Gecko_util.Pool.shutdown p;
      current_pool := None
  | Some _ | None -> ());
  requested_jobs := Some n

let pool () =
  match !current_pool with
  | Some p -> p
  | None ->
      let p = Gecko_util.Pool.create ~jobs:(jobs ()) () in
      current_pool := Some p;
      p

let pmap f xs = Gecko_util.Pool.map (pool ()) f xs

let run_nvp_progress ~board ~schedule ~duration =
  let image, meta = compiled Core.Scheme.Nvp (sense_app ()) in
  M.run ~board ~image ~meta
    {
      M.default_options with
      schedule;
      limit = M.Sim_time duration;
      restart_on_halt = true;
      max_sim_time = duration +. 1.;
    }

let progress_rate ~board ~attack ~duration =
  let schedule =
    match attack with Some a -> Schedule.always a | None -> Schedule.empty
  in
  let o = run_nvp_progress ~board ~schedule ~duration in
  let r = M.forward_progress o in
  let baseline =
    M.forward_progress (run_nvp_progress ~board ~schedule:Schedule.empty ~duration)
  in
  if baseline <= 0. then 0. else min 1.0 (r /. baseline)
