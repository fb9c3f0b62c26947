(* Frozen pre-optimization reference interpreter for the differential
   property test (test_props.ml).  This is a verbatim copy of
   lib/machine/machine.ml as of PR 1, BEFORE the hot-path optimization
   work (attack-window cursor, cached device constants, batched ADC
   observation, hoisted IO RNG).  Machine.run must produce identical
   outcomes to Ref_machine.run on every program x board x schedule x
   scheme; the differential QCheck property enforces it.  Do not
   "clean up" or re-optimize this module — its value is that it stays
   behind. *)

open Gecko_isa
open Gecko_emi
module Board = Gecko_machine.Board
module Nvm = Gecko_mem.Nvm
module Capacitor = Gecko_energy.Capacitor
module Harvester = Gecko_energy.Harvester
module Monitor = Gecko_monitor.Monitor
module Device = Gecko_devices.Device
module Policy = Gecko_core.Policy
module Meta = Gecko_core.Meta
module Scheme = Gecko_core.Scheme

type limit = Sim_time of float | Completions of int

type event_kind =
  | Ev_boot of Policy.mode
  | Ev_restore_jit
  | Ev_rollback of int
  | Ev_fresh_start
  | Ev_backup_signal of bool
  | Ev_checkpoint
  | Ev_checkpoint_failed
  | Ev_brownout
  | Ev_detection
  | Ev_reenable
  | Ev_completion

type event = { ev_time : float; ev_kind : event_kind }

let pp_event ppf e =
  let k =
    match e.ev_kind with
    | Ev_boot m -> Printf.sprintf "boot (mode %s)" (Policy.mode_to_string m)
    | Ev_restore_jit -> "JIT restore"
    | Ev_rollback b -> Printf.sprintf "rollback to boundary %d" b
    | Ev_fresh_start -> "fresh start"
    | Ev_backup_signal early ->
        if early then "backup signal (early — spurious)" else "backup signal"
    | Ev_checkpoint -> "JIT checkpoint"
    | Ev_checkpoint_failed -> "JIT checkpoint FAILED"
    | Ev_brownout -> "brownout"
    | Ev_detection -> "ATTACK DETECTED"
    | Ev_reenable -> "JIT re-enabled"
    | Ev_completion -> "application completed"
  in
  Format.fprintf ppf "%10.6fs  %s" e.ev_time k

type options = {
  schedule : Schedule.t;
  limit : limit;
  max_sim_time : float;
  timeline_bucket : float option;
  seed : int;
  restart_on_halt : bool;
  record_io : bool;
  record_events : bool;
  start_charged : bool;
  trace : Gecko_obs.Trace.t option;
  metrics : Gecko_obs.Metrics.registry option;
}

let default_options =
  {
    schedule = Schedule.empty;
    limit = Completions 1;
    max_sim_time = 3600.;
    timeline_bucket = None;
    seed = 1;
    restart_on_halt = false;
    record_io = false;
    record_events = false;
    start_charged = true;
    trace = None;
    metrics = None;
  }

type timeline = {
  bucket : float;
  app_seconds_per_bucket : float array;
  completions_per_bucket : int array;
}

type outcome = {
  completions : int;
  completion_times : float list;
  sim_time : float;
  app_cycles : int;
  app_seconds : float;
  instrumentation_cycles : int;
  jit_checkpoints : int;
  jit_checkpoint_failures : int;
  reboots : int;
  brownouts : int;
  detections : int;
  reenables : int;
  rollbacks : int;
  recovery_block_runs : int;
  corruptions : int;
  io_out_count : int;
  io_log : (int * int) list;
  final_mode : Policy.mode;
  timeline : timeline option;
  events : event list;
  hit_limit : bool;
}

let forward_progress o = if o.sim_time <= 0. then 0. else o.app_seconds /. o.sim_time

let checkpoint_failure_rate o =
  (* N_fail includes checkpoints cut short mid-write and power cycles
     whose ACK shows the expected checkpoint never completed (observed as
     a corrupt resume). *)
  let fails = o.jit_checkpoint_failures + o.corruptions in
  let attempts = o.jit_checkpoints + o.corruptions in
  if attempts = 0 then 0. else float_of_int fails /. float_of_int attempts

(* ------------------------------------------------------------------ *)

type state = {
  board : Board.t;
  image : Link.image;
  meta : Meta.t;
  opts : options;
  nvm : Nvm.t;
  cap : Capacitor.t;
  monitor : Monitor.t;
  profile : Coupling.profile;
  regs : int array;
  mutable pc : int;
  mutable powered : bool;
  mutable time : float;
  mutable mode : Policy.mode;
  (* attack cursor *)
  windows : Schedule.window array;
  mutable cur_amp : float;
  mutable cur_harvest_w : float;
  mutable next_change : float;
  (* loop control *)
  mutable stop : bool;
  mutable hit_limit : bool;
  mutable progress_written : bool;  (* progress flag written this power cycle *)
  mutable boot_inhibited : bool;  (* BOR hysteresis after a failed boot *)
  mutable boot_time : float;  (* when the current power cycle began *)
  mutable next_wake_check : float;
  t_min_on : float;  (* guaranteed minimum on-time of a full charge *)
  (* counters *)
  mutable completions : int;
  mutable completion_times : float list; (* reversed *)
  mutable app_cycles : int;
  mutable instrumentation_cycles : int;
  mutable jit_checkpoints : int;
  mutable jit_checkpoint_failures : int;
  mutable reboots : int;
  mutable brownouts : int;
  mutable detections : int;
  mutable reenables : int;
  mutable rollbacks : int;
  mutable recovery_block_runs : int;
  mutable corruptions : int;
  mutable io_in_count : int;
  mutable io_out_count : int;
  mutable io_log : (int * int) list; (* reversed; committed records only *)
  (* GECKO staged-commit io_log, mirroring the optimized interpreter. *)
  mutable io_staged : (int * int) list; (* reversed *)
  mutable io_staged_ckpt : (int * int) list;
  mutable events : event list; (* reversed *)
  (* timeline *)
  tl_app : float array;
  tl_comp : int array;
  tl_bucket : float;
  (* observability; [tracing] caches [trace <> None] so the
     per-instruction cost of an untraced run is one branch *)
  tracing : bool;
  trace : Gecko_obs.Trace.t option;
  mutable next_vsample : float;
  hist_ckpt : Gecko_obs.Metrics.histogram option;
  hist_rollback : Gecko_obs.Metrics.histogram option;
}

let cycle_time st = Device.cycle_time st.board.Board.device
let epc st = Device.energy_per_cycle st.board.Board.device
let core st = st.board.Board.device.Device.core

let sleep_step = 100e-6

(* The sleeping device evaluates its wake condition on a slow timer (the
   LPM wake-interval idiom), not at the energy-integration step. *)
let wake_poll = 1.5e-3

(* --- NVM runtime cells ---------------------------------------------- *)

let jit_cell st off = st.image.Link.jit_base + off
let sys_cell st off = st.image.Link.sys_base + off
let gecko_cell st r colour =
  st.image.Link.gecko_base + Link.Cells.gecko_slot r colour

let ratchet_cell st parity r =
  sys_cell st (Link.Cells.sys_ratchet_lo + (parity * Reg.count) + Reg.to_int r)

(* --- attack cursor --------------------------------------------------- *)

let refresh_attack st =
  if st.time >= st.next_change then begin
    let amp = ref 0. and harv = ref 0. and next = ref infinity in
    Array.iter
      (fun (w : Schedule.window) ->
        if st.time >= w.Schedule.t_start && st.time < w.Schedule.t_end then begin
          amp := Attack.induced_amplitude ~profile:st.profile w.Schedule.attack;
          harv := Attack.harvestable_power w.Schedule.attack;
          next := min !next w.Schedule.t_end
        end
        else if w.Schedule.t_start > st.time then
          next := min !next w.Schedule.t_start)
      st.windows;
    st.cur_amp <- !amp;
    st.cur_harvest_w <- !harv;
    st.next_change <- !next
  end

(* --- time & energy --------------------------------------------------- *)

let charge st dt =
  let v = Capacitor.voltage st.cap in
  let i =
    Harvester.current st.board.Board.harvester ~time:st.time ~v
    +. (st.cur_harvest_w /. max v 0.5)
  in
  Capacitor.source_current st.cap ~amps:i ~dt

let bucket_index st = int_of_float (st.time /. st.tl_bucket)

let account_app_seconds st s =
  if st.tl_bucket > 0. then begin
    let i = bucket_index st in
    if i >= 0 && i < Array.length st.tl_app then
      st.tl_app.(i) <- st.tl_app.(i) +. s
  end

(* Advance time and drain energy for [cycles] plus [extra] joules. *)
let spend st cycles ~extra =
  let dt = float_of_int cycles *. cycle_time st in
  let e = (float_of_int cycles *. epc st) +. extra in
  ignore (Capacitor.drain st.cap e);
  charge st dt;
  st.time <- st.time +. dt

let nvm_extra st ~reads ~writes =
  (float_of_int reads *. (core st).Device.nvm_read_energy)
  +. (float_of_int writes *. (core st).Device.nvm_write_energy)

(* --- observability ---------------------------------------------------- *)

let trace_ids = function
  | Ev_boot _ -> ("boot", "power")
  | Ev_restore_jit -> ("restore_jit", "checkpoint")
  | Ev_rollback _ -> ("rollback", "recovery")
  | Ev_fresh_start -> ("fresh_start", "recovery")
  | Ev_backup_signal true -> ("backup_signal_early", "monitor")
  | Ev_backup_signal false -> ("backup_signal", "monitor")
  | Ev_checkpoint -> ("checkpoint", "checkpoint")
  | Ev_checkpoint_failed -> ("checkpoint_failed", "checkpoint")
  | Ev_brownout -> ("brownout", "power")
  | Ev_detection -> ("detection", "defense")
  | Ev_reenable -> ("reenable", "defense")
  | Ev_completion -> ("completion", "app")

let sample_voltage st =
  match st.trace with
  | None -> ()
  | Some tr ->
      Gecko_obs.Trace.counter tr ~cat:"energy" ~ts:st.time "cap_voltage"
        (Capacitor.voltage st.cap)

(* Voltage gauge sampling cadence on the trace (simulated time). *)
let vsample_period = 0.5e-3

let trace_span st ~t0 ~cat name =
  match st.trace with
  | None -> ()
  | Some tr ->
      Gecko_obs.Trace.complete tr ~cat ~ts:t0 ~dur:(st.time -. t0) name

let hist_observe h v =
  match h with None -> () | Some h -> Gecko_obs.Metrics.observe h v

let record st kind =
  if st.opts.record_events then
    st.events <- { ev_time = st.time; ev_kind = kind } :: st.events;
  if st.tracing then begin
    (match st.trace with
    | Some tr ->
        let name, cat = trace_ids kind in
        Gecko_obs.Trace.instant tr ~cat ~ts:st.time name
    | None -> ());
    sample_voltage st
  end

(* --- power transitions ----------------------------------------------- *)

let shutdown st =
  if st.tracing && st.powered then
    trace_span st ~t0:st.boot_time ~cat:"power" "power_on";
  st.powered <- false;
  Monitor.arm_wake st.monitor;
  Monitor.sync st.monitor ~time:st.time

let brownout st =
  st.brownouts <- st.brownouts + 1;
  record st Ev_brownout;
  (* Volatile state is lost — including any uncommitted io_log stage. *)
  Array.fill st.regs 0 Reg.count 0;
  st.io_staged <- [];
  shutdown st

let monitor_is_gecko st =
  match st.meta.Meta.scheme with
  | Scheme.Gecko | Scheme.Gecko_noprune -> true
  | Scheme.Nvp | Scheme.Ratchet -> false

let set_mode st m =
  st.mode <- m;
  Nvm.write st.nvm (sys_cell st Link.Cells.sys_mode) (Policy.mode_to_int m);
  if monitor_is_gecko st then
    Monitor.set_enabled st.monitor (Policy.monitor_enabled m)

(* --- program (re)start ----------------------------------------------- *)

let fresh_start st =
  Array.fill st.regs 0 Reg.count 0;
  st.io_staged <- [];
  st.regs.(Reg.to_int Reg.sp) <- st.image.Link.stack_words - 1;
  st.pc <- st.image.Link.entry

let reinit_data st =
  for a = 0 to st.image.Link.data_words - 1 do
    Nvm.write st.nvm a 0
  done;
  List.iter
    (fun (space_id, init) ->
      let base = st.image.Link.space_base.(space_id) in
      Array.iteri (fun i v -> Nvm.write st.nvm (base + i) v) init)
    st.image.Link.prog.Cfg.init_data;
  (* The progress flag is a power-cycle notion and is left alone here. *)
  Nvm.write st.nvm (sys_cell st Link.Cells.sys_boundary) 0;
  Nvm.write st.nvm (jit_cell st Link.Cells.jit_pc) (-1)

(* --- JIT checkpoint ISR (CTPL) --------------------------------------- *)

(* CTPL checkpoints the in-use SRAM sections as well as the register
   file; the simulator carries no separate SRAM, so this is a pure
   time/energy cost. *)
let ctpl_sram_words = 96

let jit_checkpoint_work st =
  st.jit_checkpoints <- st.jit_checkpoints + 1;
  spend st Cost.jit_isr_overhead_cycles ~extra:0.;
  let failed_sram = ref false in
  (try
     for _ = 1 to ctpl_sram_words do
       spend st Cost.nvm_write_cycles ~extra:(nvm_extra st ~reads:1 ~writes:1);
       if Capacitor.voltage st.cap <= st.board.Board.v_off then begin
         failed_sram := true;
         raise Exit
       end
     done
   with Exit -> ());
  if !failed_sram then begin
    st.jit_checkpoint_failures <- st.jit_checkpoint_failures + 1;
    record st Ev_checkpoint_failed;
    brownout st
  end
  else
  let failed = ref false in
  let write_word off v =
    if not !failed then begin
      spend st Cost.nvm_write_cycles ~extra:(nvm_extra st ~reads:0 ~writes:1);
      if Capacitor.voltage st.cap <= st.board.Board.v_off then failed := true
      else Nvm.write st.nvm (jit_cell st off) v
    end
  in
  begin
  Array.iteri (fun i v -> write_word (Link.Cells.jit_regs + i) v) st.regs;
  write_word Link.Cells.jit_pc st.pc;
  (* The ACK toggle is the last write — the checkpoint barrier. *)
  if not !failed then begin
    let ack = Nvm.read st.nvm (jit_cell st Link.Cells.jit_ack) in
    write_word Link.Cells.jit_ack (ack lxor 1)
  end;
  (if !failed then begin
     st.jit_checkpoint_failures <- st.jit_checkpoint_failures + 1;
     record st Ev_checkpoint_failed;
     brownout st
   end
   else begin
     (* The stage is part of the checkpointed volatile state. *)
     st.io_staged_ckpt <- st.io_staged;
     record st Ev_checkpoint
   end)
  end

(* The JIT checkpoint ISR latency — from backup signal to the ACK write
   (or the brownout that killed it) — is the window the attacker races. *)
let jit_checkpoint st =
  let t0 = st.time in
  jit_checkpoint_work st;
  trace_span st ~t0 ~cat:"checkpoint" "jit_checkpoint_isr";
  hist_observe st.hist_ckpt (st.time -. t0)

(* --- rollback recovery ----------------------------------------------- *)

let run_recovery_slice st (rec_ : Meta.recovery) =
  st.recovery_block_runs <- st.recovery_block_runs + 1;
  let scratch = Array.make Reg.count 0 in
  List.iter
    (fun instr ->
      let c = Cost.instr_cycles instr in
      (match instr with
      | Instr.Li (d, v) -> scratch.(Reg.to_int d) <- v
      | Instr.Mov (d, s) -> scratch.(Reg.to_int d) <- scratch.(Reg.to_int s)
      | Instr.Bin (op, d, a, b) ->
          let bv =
            match b with
            | Instr.Oreg r -> scratch.(Reg.to_int r)
            | Instr.Oimm v -> v
          in
          scratch.(Reg.to_int d) <-
            Instr.eval_binop op scratch.(Reg.to_int a) bv
      | Instr.Ld (d, m) ->
          let addr = Link.resolve st.image m scratch in
          spend st 0 ~extra:(nvm_extra st ~reads:1 ~writes:0);
          scratch.(Reg.to_int d) <- Nvm.read st.nvm addr
      | Instr.LdSlot (d, src, colour) ->
          spend st 0 ~extra:(nvm_extra st ~reads:1 ~writes:0);
          scratch.(Reg.to_int d) <-
            Nvm.read st.nvm (gecko_cell st (Reg.of_int src) colour)
      | Instr.St _ | Instr.In _ | Instr.Out _ | Instr.Nop | Instr.Ckpt _
      | Instr.CkptDyn _ | Instr.Boundary _ ->
          (* Never emitted into slices. *)
          ());
      spend st c ~extra:0.)
    rec_.Meta.g_slice;
  st.regs.(Reg.to_int rec_.Meta.g_reg) <- scratch.(Reg.to_int rec_.Meta.g_reg)

let gecko_rollback_work st =
  (* Anything staged after the committed boundary is discarded: the
     region that produced it re-executes from the restore point. *)
  st.io_staged <- [];
  let bid = Nvm.read st.nvm (sys_cell st Link.Cells.sys_boundary) - 1 in
  if bid < 0 then begin
    record st Ev_fresh_start;
    fresh_start st
  end
  else begin
    st.rollbacks <- st.rollbacks + 1;
    record st (Ev_rollback bid);
    spend st Cost.rollback_overhead_cycles ~extra:0.;
    Array.fill st.regs 0 Reg.count 0;
    (match Meta.boundary_info st.meta bid with
    | Some info ->
        List.iter
          (fun (r : Meta.restore) ->
            spend st Cost.nvm_read_cycles
              ~extra:(nvm_extra st ~reads:1 ~writes:0);
            st.regs.(Reg.to_int r.Meta.r_reg) <-
              Nvm.read st.nvm (gecko_cell st r.Meta.r_reg r.Meta.r_color))
          info.Meta.restores;
        List.iter (run_recovery_slice st) info.Meta.recoveries
    | None -> ());
    st.pc <- Hashtbl.find st.image.Link.boundary_index bid + 1
  end

let gecko_rollback st =
  let t0 = st.time in
  gecko_rollback_work st;
  trace_span st ~t0 ~cat:"recovery" "rollback";
  hist_observe st.hist_rollback (st.time -. t0)

let ratchet_rollback_work st =
  let bid = Nvm.read st.nvm (sys_cell st Link.Cells.sys_boundary) - 1 in
  if bid < 0 then begin
    record st Ev_fresh_start;
    fresh_start st
  end
  else begin
    st.rollbacks <- st.rollbacks + 1;
    record st (Ev_rollback bid);
    let parity = Nvm.read st.nvm (sys_cell st Link.Cells.sys_parity) in
    List.iter
      (fun r ->
        spend st Cost.nvm_read_cycles ~extra:(nvm_extra st ~reads:1 ~writes:0);
        st.regs.(Reg.to_int r) <- Nvm.read st.nvm (ratchet_cell st parity r))
      Reg.all;
    st.pc <- Hashtbl.find st.image.Link.boundary_index bid + 1
  end

let ratchet_rollback st =
  let t0 = st.time in
  ratchet_rollback_work st;
  trace_span st ~t0 ~cat:"recovery" "rollback";
  hist_observe st.hist_rollback (st.time -. t0)

let restore_jit st =
  record st Ev_restore_jit;
  st.io_staged <- st.io_staged_ckpt;
  spend st (ctpl_sram_words * Cost.nvm_read_cycles)
    ~extra:(nvm_extra st ~reads:ctpl_sram_words ~writes:0);
  for i = 0 to Reg.count - 1 do
    st.regs.(i) <- Nvm.read st.nvm (jit_cell st (Link.Cells.jit_regs + i))
  done;
  spend st (Reg.count * Cost.nvm_read_cycles)
    ~extra:(nvm_extra st ~reads:(Reg.count + 2) ~writes:0);
  st.pc <- Nvm.read st.nvm (jit_cell st Link.Cells.jit_pc)

let handle_backup st =
  (match st.meta.Meta.scheme with
  | Scheme.Gecko | Scheme.Gecko_noprune ->
      record st (Ev_backup_signal (st.time -. st.boot_time < st.t_min_on))
  | Scheme.Nvp | Scheme.Ratchet -> record st (Ev_backup_signal false));
  match st.meta.Meta.scheme with
  | Scheme.Nvp ->
      jit_checkpoint st;
      if st.powered then shutdown st
  | Scheme.Ratchet ->
      (* No JIT state to save; the undervoltage interrupt powers down. *)
      spend st Cost.jit_isr_overhead_cycles ~extra:0.;
      shutdown st
  | Scheme.Gecko | Scheme.Gecko_noprune ->
      let early = st.time -. st.boot_time < st.t_min_on in
      let mode', action, detected = Policy.on_backup_signal st.mode ~early in
      if detected then begin
        st.detections <- st.detections + 1;
        record st Ev_detection
      end;
      set_mode st mode';
      (match action with
      | Policy.Checkpoint_and_sleep ->
          jit_checkpoint st;
          if st.powered then shutdown st
      | Policy.Rollback_inline ->
          (* The signal is untrusted: re-enter the interrupted region and
             keep executing with the attack surface closed. *)
          gecko_rollback st)

(* --- boot protocol ---------------------------------------------------- *)

let boot_protocol st =
  let ack = Nvm.read st.nvm (jit_cell st Link.Cells.jit_ack) in
  let seen = Nvm.read st.nvm (sys_cell st Link.Cells.sys_ack_seen) in
  let jp = Nvm.read st.nvm (jit_cell st Link.Cells.jit_pc) in
  let ack_ok = ack <> seen && jp >= 0 in
  Nvm.write st.nvm (sys_cell st Link.Cells.sys_ack_seen) ack;
  match st.meta.Meta.scheme with
  | Scheme.Nvp ->
      if ack_ok then restore_jit st
      else if jp < 0 then fresh_start st
      else begin
        (* Corrupted checkpoint: the register image cannot be trusted.
           The device restarts the program over possibly-inconsistent
           NVM — the data-corruption outcome of Section IV-B2. *)
        st.corruptions <- st.corruptions + 1;
        fresh_start st
      end
  | Scheme.Ratchet -> ratchet_rollback st
  | Scheme.Gecko | Scheme.Gecko_noprune ->
      let progress =
        Nvm.read st.nvm (sys_cell st Link.Cells.sys_progress) = 1
      in
      Nvm.write st.nvm (sys_cell st Link.Cells.sys_progress) 0;
      let mode = Policy.mode_of_int (Nvm.read st.nvm (sys_cell st Link.Cells.sys_mode)) in
      let mode', action, detected = Policy.on_boot mode { Policy.ack_ok; progress } in
      if detected then begin
        st.detections <- st.detections + 1;
        record st Ev_detection
      end;
      set_mode st mode';
      (match action with
      | Policy.Resume_jit -> if jp >= 0 then restore_jit st else fresh_start st
      | Policy.Rollback -> gecko_rollback st)

(* BOR behaviour: a boot attempt starts once the supply clears the
   power-on-reset threshold (a small margin above brownout); it may still
   die mid-boot, which costs real energy — exactly the V_fail-window
   vulnerability of Section IV-B2.  After a failed attempt a hysteresis
   band gates retries. *)
let try_reboot st =
  let v = Capacitor.voltage st.cap in
  let v_por = st.board.Board.v_off +. 0.1 in
  let gate = if st.boot_inhibited then v_por +. 0.08 else v_por in
  if v < gate then ()
  else begin
    st.reboots <- st.reboots + 1;
    let latency = (core st).Device.reboot_latency in
    ignore (Capacitor.drain st.cap (core st).Device.reboot_energy);
    charge st latency;
    st.time <- st.time +. latency;
    if Capacitor.voltage st.cap > st.board.Board.v_off then begin
      st.boot_inhibited <- false;
      st.powered <- true;
      st.progress_written <- false;
      st.boot_time <- st.time;
      Monitor.arm_backup st.monitor;
      Monitor.sync st.monitor ~time:st.time;
      record st (Ev_boot st.mode);
      boot_protocol st
    end
    else st.boot_inhibited <- true
  end

(* --- instruction execution ------------------------------------------- *)

let io_in_value st port =
  let h =
    Gecko_util.Rng.create
      ((st.opts.seed * 1_000_003) + (st.io_in_count * 31) + port)
  in
  st.io_in_count <- st.io_in_count + 1;
  Gecko_util.Rng.int h 1024

let complete st =
  (* Defensive: region formation brackets every [Out] with a boundary,
     so the stage is empty here; if a hand-built program reaches [Halt]
     with staged records, completion commits them. *)
  if st.io_staged <> [] then begin
    st.io_log <- st.io_staged @ st.io_log;
    st.io_staged <- []
  end;
  st.completions <- st.completions + 1;
  record st Ev_completion;
  st.completion_times <- st.time :: st.completion_times;
  if st.tl_bucket > 0. then begin
    let i = bucket_index st in
    if i >= 0 && i < Array.length st.tl_comp then
      st.tl_comp.(i) <- st.tl_comp.(i) + 1
  end;
  (match st.opts.limit with
  | Completions n when st.completions >= n ->
      st.stop <- true;
      st.hit_limit <- true
  | Completions _ | Sim_time _ -> ());
  if not st.stop then
    if st.opts.restart_on_halt then begin
      spend st 100 ~extra:0.;
      reinit_data st;
      fresh_start st
    end
    else begin
      st.stop <- true;
      st.hit_limit <- true
    end

let exec_op st i =
  let c = Cost.instr_cycles i in
  let r = Reg.to_int in
  (match i with
  | Instr.Li (d, v) ->
      spend st c ~extra:0.;
      st.regs.(r d) <- v
  | Instr.Mov (d, s) ->
      spend st c ~extra:0.;
      st.regs.(r d) <- st.regs.(r s)
  | Instr.Bin (op, d, a, b) ->
      spend st c ~extra:0.;
      let bv =
        match b with Instr.Oreg x -> st.regs.(r x) | Instr.Oimm v -> v
      in
      st.regs.(r d) <- Instr.eval_binop op st.regs.(r a) bv
  | Instr.Ld (d, m) ->
      spend st c ~extra:(nvm_extra st ~reads:1 ~writes:0);
      st.regs.(r d) <- Nvm.read st.nvm (Link.resolve st.image m st.regs)
  | Instr.St (m, s) ->
      spend st c ~extra:(nvm_extra st ~reads:0 ~writes:1);
      Nvm.write st.nvm (Link.resolve st.image m st.regs) st.regs.(r s)
  | Instr.In (d, port) ->
      spend st c ~extra:0.;
      st.regs.(r d) <- io_in_value st port
  | Instr.Out (port, s) ->
      spend st c ~extra:0.;
      st.io_out_count <- st.io_out_count + 1;
      if st.opts.record_io then
        if monitor_is_gecko st then
          (* Staged, not logged: the record becomes persistent only at
             the region commit point. *)
          st.io_staged <- (port, st.regs.(r s)) :: st.io_staged
        else st.io_log <- (port, st.regs.(r s)) :: st.io_log
  | Instr.Nop -> spend st c ~extra:0.
  | Instr.Ckpt (src, colour) ->
      spend st c ~extra:(nvm_extra st ~reads:0 ~writes:1);
      Nvm.write st.nvm (gecko_cell st src colour) st.regs.(r src)
  | Instr.CkptDyn src ->
      spend st c ~extra:(nvm_extra st ~reads:1 ~writes:1);
      let parity = Nvm.read st.nvm (sys_cell st Link.Cells.sys_parity) in
      Nvm.write st.nvm (ratchet_cell st (1 - parity) src) st.regs.(r src)
  | Instr.LdSlot (d, src, colour) ->
      spend st c ~extra:(nvm_extra st ~reads:1 ~writes:0);
      st.regs.(r d) <- Nvm.read st.nvm (gecko_cell st (Reg.of_int src) colour)
  | Instr.Boundary id ->
      spend st c ~extra:(nvm_extra st ~reads:0 ~writes:1);
      Nvm.write st.nvm (sys_cell st Link.Cells.sys_boundary) (id + 1);
      if not st.progress_written then begin
        (* Once per power cycle: the detection flag. *)
        spend st Cost.nvm_write_cycles ~extra:(nvm_extra st ~reads:0 ~writes:1);
        Nvm.write st.nvm (sys_cell st Link.Cells.sys_progress) 1;
        st.progress_written <- true
      end;
      (match st.meta.Meta.scheme with
      | Scheme.Ratchet ->
          let parity = Nvm.read st.nvm (sys_cell st Link.Cells.sys_parity) in
          Nvm.write st.nvm (sys_cell st Link.Cells.sys_parity) (1 - parity)
      | Scheme.Gecko | Scheme.Gecko_noprune ->
          (* Region commit: atomically append the staged io_log records.
             Both lists are newest-first, so prepending the stage keeps
             the log in emission order. *)
          if st.io_staged <> [] then begin
            st.io_log <- st.io_staged @ st.io_log;
            st.io_staged <- []
          end;
          let mode' = Policy.on_region_commit st.mode in
          if st.mode = Policy.Probe && mode' = Policy.Jit_on then begin
            st.reenables <- st.reenables + 1;
            record st Ev_reenable
          end;
          if mode' <> st.mode then set_mode st mode'
      | Scheme.Nvp -> ()));
  (* Progress accounting. *)
  match i with
  | Instr.Ckpt _ | Instr.CkptDyn _ | Instr.LdSlot _ | Instr.Boundary _ ->
      st.instrumentation_cycles <- st.instrumentation_cycles + c
  | _ ->
      st.app_cycles <- st.app_cycles + c;
      account_app_seconds st (float_of_int c *. cycle_time st)

let step_instr st =
  refresh_attack st;
  (match st.image.Link.code.(st.pc) with
  | Link.Op i ->
      st.pc <- st.pc + 1;
      exec_op st i
  | Link.Ljmp t ->
      spend st 1 ~extra:0.;
      st.app_cycles <- st.app_cycles + 1;
      account_app_seconds st (cycle_time st);
      st.pc <- t
  | Link.Lbr (cond, reg, t, e) ->
      spend st 1 ~extra:0.;
      st.app_cycles <- st.app_cycles + 1;
      account_app_seconds st (cycle_time st);
      st.pc <- (if Instr.eval_cond cond st.regs.(Reg.to_int reg) then t else e)
  | Link.Lcall (target, ret) ->
      let c = Cost.term_cycles (Instr.Call ("", "")) in
      spend st c ~extra:(nvm_extra st ~reads:0 ~writes:1);
      st.app_cycles <- st.app_cycles + c;
      account_app_seconds st (float_of_int c *. cycle_time st);
      let sp = st.regs.(Reg.to_int Reg.sp) in
      Nvm.write st.nvm (st.image.Link.stack_base + sp) ret;
      st.regs.(Reg.to_int Reg.sp) <- sp - 1;
      st.pc <- target
  | Link.Lret ->
      let c = Cost.term_cycles Instr.Ret in
      spend st c ~extra:(nvm_extra st ~reads:1 ~writes:0);
      st.app_cycles <- st.app_cycles + c;
      account_app_seconds st (float_of_int c *. cycle_time st);
      let sp = st.regs.(Reg.to_int Reg.sp) + 1 in
      st.regs.(Reg.to_int Reg.sp) <- sp;
      st.pc <- Nvm.read st.nvm (st.image.Link.stack_base + sp)
  | Link.Lhalt ->
      spend st 1 ~extra:0.;
      complete st);
  if st.tracing && st.time >= st.next_vsample then begin
    sample_voltage st;
    st.next_vsample <- st.time +. vsample_period
  end;
  if st.powered && not st.stop then begin
    if Capacitor.voltage st.cap <= st.board.Board.v_off then brownout st
    else
      let disturbance = st.cur_amp in
      match
        Monitor.observe st.monitor ~time:st.time
          ~v_true:(Capacitor.voltage st.cap) ~disturbance
      with
      | Some Monitor.Backup -> handle_backup st
      | Some Monitor.Wake | None -> ()
  end

let step_sleep st =
  refresh_attack st;
  let dt = sleep_step in
  (* Below brownout the MCU is completely off; only capacitor leakage
     remains (two orders of magnitude below the LPM draw). *)
  let sleep_draw =
    if Capacitor.voltage st.cap > st.board.Board.v_off then
      (core st).Device.sleep_power
    else (core st).Device.sleep_power /. 100.
  in
  ignore (Capacitor.drain st.cap (sleep_draw *. dt));
  charge st dt;
  st.time <- st.time +. dt;
  if st.time < st.next_wake_check then ()
  else begin
  st.next_wake_check <- st.time +. wake_poll;
  if st.tracing && st.time >= st.next_vsample then begin
    sample_voltage st;
    st.next_vsample <- st.time +. vsample_period
  end;
  let monitor_wake =
    match st.meta.Meta.scheme with
    | Scheme.Nvp | Scheme.Ratchet -> true
    | Scheme.Gecko | Scheme.Gecko_noprune -> Policy.monitor_enabled st.mode
  in
  if monitor_wake then begin
    match
      Monitor.observe st.monitor ~time:st.time
        ~v_true:(Capacitor.voltage st.cap) ~disturbance:st.cur_amp
    with
    | Some Monitor.Wake -> try_reboot st
    | Some Monitor.Backup | None -> ()
  end
  else if
    (* Attack surface closed: reboot only on the true (on-die POR)
       threshold, which remote EMI cannot move. *)
    Capacitor.voltage st.cap >= st.board.Board.v_on
  then try_reboot st
  end

(* ------------------------------------------------------------------ *)

let make_state ~board ~image ~meta opts =
  let nvm = Nvm.create ~words:image.Link.nvm_words () in
  Nvm.load_program nvm image;
  let device = board.Board.device in
  let kind = Device.monitor_kind device board.Board.monitor_choice in
  let monitor =
    Monitor.create kind
      { Gecko_monitor.Monitor.v_backup = board.Board.v_backup; v_on = board.Board.v_on }
  in
  let profile = Device.coupling device board.Board.monitor_choice in
  let v_init = if opts.start_charged then board.Board.v_max else 0. in
  let cap =
    Capacitor.create ~capacitance:board.Board.capacitance
      ~v_max:board.Board.v_max ~v_init
  in
  let tl_bucket = Option.value opts.timeline_bucket ~default:0. in
  let n_buckets =
    if tl_bucket > 0. then
      let horizon =
        match opts.limit with
        | Sim_time t -> t
        | Completions _ -> opts.max_sim_time
      in
      int_of_float (ceil (horizon /. tl_bucket)) + 1
    else 0
  in
  let st =
    {
      board;
      image;
      meta;
      opts;
      nvm;
      cap;
      monitor;
      profile;
      regs = Array.make Reg.count 0;
      pc = image.Link.entry;
      powered = opts.start_charged;
      time = 0.;
      mode = Policy.Jit_on;
      windows = Array.of_list (Schedule.windows opts.schedule);
      cur_amp = 0.;
      cur_harvest_w = 0.;
      next_change = neg_infinity;
      stop = false;
      hit_limit = false;
      progress_written = false;
      boot_inhibited = false;
      boot_time = 0.;
      next_wake_check = 0.;
      t_min_on =
        0.5 *. float_of_int (Board.budget_cycles board)
        *. Device.cycle_time board.Board.device;
      completions = 0;
      completion_times = [];
      app_cycles = 0;
      instrumentation_cycles = 0;
      jit_checkpoints = 0;
      jit_checkpoint_failures = 0;
      reboots = 0;
      brownouts = 0;
      detections = 0;
      reenables = 0;
      rollbacks = 0;
      recovery_block_runs = 0;
      corruptions = 0;
      io_in_count = 0;
      io_out_count = 0;
      io_log = [];
      io_staged = [];
      io_staged_ckpt = [];
      events = [];
      tl_app = Array.make (max n_buckets 1) 0.;
      tl_comp = Array.make (max n_buckets 1) 0;
      tl_bucket;
      tracing = Option.is_some opts.trace;
      trace = opts.trace;
      next_vsample = 0.;
      hist_ckpt =
        Option.map
          (fun reg -> Gecko_obs.Metrics.histogram reg "machine.jit_checkpoint_isr_s")
          opts.metrics;
      hist_rollback =
        Option.map
          (fun reg -> Gecko_obs.Metrics.histogram reg "machine.rollback_s")
          opts.metrics;
    }
  in
  (match st.trace with
  | Some tr ->
      (* The raw monitor output stream: what the (possibly disturbed)
         voltage monitor reported, before the runtime acted on it. *)
      Monitor.set_on_event monitor (fun ~time ev ->
          Gecko_obs.Trace.instant tr ~cat:"monitor" ~ts:time
            (match ev with
            | Monitor.Backup -> "monitor_backup"
            | Monitor.Wake -> "monitor_wake"))
  | None -> ());
  (* Initialize runtime cells. *)
  Nvm.write nvm (jit_cell st Link.Cells.jit_pc) (-1);
  Nvm.write nvm (sys_cell st Link.Cells.sys_ack_seen) (-1);
  Nvm.write nvm (sys_cell st Link.Cells.sys_mode)
    (Policy.mode_to_int Policy.Jit_on);
  fresh_start st;
  if not opts.start_charged then Monitor.arm_wake st.monitor;
  if monitor_is_gecko st then
    Monitor.set_enabled st.monitor (Policy.monitor_enabled st.mode);
  (* The initial power-up is a boot like any other. *)
  if st.powered then record st (Ev_boot st.mode);
  st

(* End-of-run scalar dump into the metrics registry.  Counters add, so a
   registry shared across several runs accumulates suite totals; the
   gauges keep last-run values. *)
let export_metrics st =
  match st.opts.metrics with
  | None -> ()
  | Some reg ->
      let module Mx = Gecko_obs.Metrics in
      let c name v = Mx.incr ~by:v (Mx.counter reg name) in
      c "machine.completions" st.completions;
      c "machine.jit_checkpoints" st.jit_checkpoints;
      c "machine.jit_checkpoint_failures" st.jit_checkpoint_failures;
      c "machine.reboots" st.reboots;
      c "machine.brownouts" st.brownouts;
      c "machine.detections" st.detections;
      c "machine.reenables" st.reenables;
      c "machine.rollbacks" st.rollbacks;
      c "machine.recovery_block_runs" st.recovery_block_runs;
      c "machine.corruptions" st.corruptions;
      c "machine.app_cycles" st.app_cycles;
      c "machine.instrumentation_cycles" st.instrumentation_cycles;
      c "monitor.observations" (Monitor.observations st.monitor);
      c "monitor.fires" (Monitor.fires st.monitor);
      let g name v = Mx.set_gauge (Mx.gauge reg name) v in
      g "machine.sim_time_s" st.time;
      g "machine.app_seconds" (float_of_int st.app_cycles *. cycle_time st);
      g "machine.cap_voltage_final_v" (Capacitor.voltage st.cap);
      g "energy.drained_j" (Capacitor.energy_drained_total st.cap);
      g "energy.sourced_j" (Capacitor.energy_sourced_total st.cap)

let finish st =
  export_metrics st;
  if st.tracing then sample_voltage st;
  {
    completions = st.completions;
    completion_times = List.rev st.completion_times;
    sim_time = st.time;
    app_cycles = st.app_cycles;
    app_seconds = float_of_int st.app_cycles *. cycle_time st;
    instrumentation_cycles = st.instrumentation_cycles;
    jit_checkpoints = st.jit_checkpoints;
    jit_checkpoint_failures = st.jit_checkpoint_failures;
    reboots = st.reboots;
    brownouts = st.brownouts;
    detections = st.detections;
    reenables = st.reenables;
    rollbacks = st.rollbacks;
    recovery_block_runs = st.recovery_block_runs;
    corruptions = st.corruptions;
    io_out_count = st.io_out_count;
    io_log = List.rev st.io_log;
    final_mode = st.mode;
    events = List.rev st.events;
    timeline =
      (if st.tl_bucket > 0. then
         Some
           {
             bucket = st.tl_bucket;
             app_seconds_per_bucket = st.tl_app;
             completions_per_bucket = st.tl_comp;
           }
       else None);
    hit_limit = st.hit_limit;
  }

let run_state st =
  let time_limit =
    match st.opts.limit with
    | Sim_time t -> min t st.opts.max_sim_time
    | Completions _ -> st.opts.max_sim_time
  in
  while not st.stop do
    if st.time >= time_limit then begin
      st.stop <- true;
      st.hit_limit <- (match st.opts.limit with Sim_time _ -> true | Completions _ -> false)
    end
    else if st.powered then step_instr st
    else step_sleep st
  done;
  finish st

let run ~board ~image ~meta opts =
  run_state (make_state ~board ~image ~meta opts)

let data_snapshot st =
  Array.init st.image.Link.data_words (fun i -> Nvm.read st.nvm i)

let run_with_nvm ~board ~image ~meta opts =
  let st = make_state ~board ~image ~meta opts in
  let o = run_state st in
  (o, data_snapshot st)

let golden_nvm ~board ~image ~meta =
  let board =
    { board with Board.harvester = Gecko_energy.Harvester.constant_power 1.0 }
  in
  let opts =
    { default_options with limit = Completions 1; max_sim_time = 3600. }
  in
  let st = make_state ~board ~image ~meta opts in
  ignore (run_state st);
  data_snapshot st
