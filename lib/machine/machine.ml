open Gecko_isa
open Gecko_emi
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

(* Fault-injection sites: the points where the simulator consults the
   (optional) injector callback.  Each consultation is an instant at
   which a power failure could physically strike: an instruction fetch
   boundary, a runtime event, an individual NVM word write inside the
   JIT checkpoint ISR, or a restore step inside a rollback. *)
type inject_site =
  | S_instr
  | S_event of event_kind
  | S_ckpt_word of int
  | S_rollback_step of int

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
  flight : Gecko_obs.Flight.t option;
  (* [fast = false] forces the per-instruction checked path everywhere —
     the pre-decoded block dispatcher is skipped.  Debug/differential
     aid: outcomes must be identical either way. *)
  fast : bool;
  (* A cached [Decode.decode] of this image (see Workbench); decoded
     fresh when [None].  Ignored unless it matches the run's image. *)
  decoded : Decode.t option;
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
    flight = None;
    fast = true;
    decoded = None;
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
  instructions : int;
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
  misspeculations : int;
  boundary_commits : int;
  ckpt_stores : int;
  guarded_stores : int;
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

(* The per-instruction mutable floats live in their own all-float
   record: OCaml stores such records flat (unboxed), so the hot-path
   writes in [spend]/[refresh_attack] are plain stores.  Inside the
   mixed [state] record below each mutable float write would allocate a
   fresh box and go through the write barrier. *)
type phys = {
  mutable time : float;
  mutable cur_amp : float;
  mutable cur_harvest_w : float;
  mutable next_change : float;
  mutable next_obs : float;
  mutable next_vsample : float;
  mutable boot_time : float;
  mutable next_wake_check : float;
  k_harv_pw : float;
      (* delivered watts of a bare constant-power harvester (0. otherwise);
         lives here rather than in [state] so the fast path reads it flat
         instead of chasing a boxed-float or option pointer *)
  k_thev_vs : float;
  k_thev_r : float;
      (* source voltage and impedance of a bare Thevenin harvester (0.
         otherwise), flat for the same reason *)
  mutable horizon : float;
  mutable horizon_at : float;
      (* [Step.advance_to]'s target and the time it stopped at: while the
         clock still reads [horizon_at], every step so far started before
         [horizon] (see [fork]) *)
}

type state = {
  board : Board.t;
  image : Link.image;
  meta : Meta.t;
  opts : options;
  nvm : Nvm.t;
  cap : Capacitor.t;
  monitor : Monitor.t;
  profile : Coupling.profile;
  (* per-device constants, copied out of the board at creation so the
     per-instruction paths never chase device/core pointers *)
  k_cycle_time : float;
  k_epc : float;
  k_nvm_read_e : float;
  k_nvm_write_e : float;
  k_sleep_power : float;
  k_v_off : float;
  k_e_off : float;  (* stored energy at the brownout threshold *)
  k_harv : Harvester.t;  (* copy of [board.harvester], no pointer chase *)
  k_harv_const : bool;  (* bare constant-power source: use [ph.k_harv_pw] *)
  k_harv_thev : bool;  (* bare Thevenin source: use [ph.k_thev_vs/r] *)
  k_tl_on : bool;  (* timeline buckets requested ([tl_bucket > 0.]) *)
  ph : phys;
  (* pre-decoded instruction stream + block dispatcher switch *)
  dec : Decode.t;
  fast_enabled : bool;
  rng_io : Gecko_util.Rng.t;  (* per-run RNG behind [In], reseeded per draw *)
  regs : int array;
  mutable pc : int;
  mutable powered : bool;
  mutable mode : Policy.mode;
  (* attack cursor: windows are sorted by start time and non-overlapping
     (Schedule invariant), and simulated time only moves forward, so a
     monotone index replaces the per-instruction array scan *)
  windows : Schedule.window array;
  mutable win_idx : int;
  mutable instrs : int;
  (* fault injection: consulted at every {!inject_site}; [true] forces a
     power failure at that exact point.  [None] keeps the plain path. *)
  mutable injector : (inject_site -> bool) option;
  (* loop control *)
  k_time_limit : float;  (* resolved stop time of [opts.limit] *)
  mutable stop : bool;
  mutable hit_limit : bool;
  mutable progress_written : bool;  (* progress flag written this power cycle *)
  mutable boot_inhibited : bool;  (* BOR hysteresis after a failed boot *)
  t_min_on : float;  (* guaranteed minimum on-time of a full charge *)
  (* counters *)
  mutable completions : int;
  mutable completion_times : float list;
      (* reversed; kept only when [record_events] is off — otherwise the
         [Ev_completion] events carry the same times, and a run (or a
         fork table of runs) holds each one once *)
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
  mutable boundary_commits : int;
  mutable ckpt_stores : int;
  mutable corruptions : int;
  mutable io_in_count : int;
  mutable io_out_count : int;
  mutable io_log : (int * int) list; (* reversed; committed records only *)
  (* GECKO staged-commit protocol for the io_log: [Out] records are
     staged in volatile memory and appended to the persistent log
     atomically at the region commit point ([Boundary]).  A rollback or
     brownout discards the stage, so a re-executed region cannot
     duplicate its records and a torn region cannot leave partial ones.
     The JIT checkpoint snapshots the stage along with the registers
     (it is volatile state), and [restore_jit] brings it back. *)
  mutable io_staged : (int * int) list; (* reversed *)
  mutable io_staged_ckpt : (int * int) list;
  (* The event log, in chunks: full chunks (newest first) are never
     written again, so forks share them; only the open chunk
     [ev_times]/[ev_kinds] (its first [ev_len] slots used) is copied.
     A flat float costs one word where a list of boxed-time records
     costs eight, which matters when a fork table holds many runs. *)
  mutable ev_full : (float array * event_kind array) list;
  mutable ev_times : float array;
  mutable ev_kinds : event_kind array;
  mutable ev_len : int;
  (* timeline *)
  tl_app : float array;
  tl_comp : int array;
  tl_bucket : float;
  (* observability; [tracing] caches [trace <> None] so the
     per-instruction cost of an untraced run is one branch *)
  tracing : bool;
  trace : Gecko_obs.Trace.t option;
  (* a fleet device without a flight recorder ([None]) pays a single
     branch per recorded event *)
  flight : Gecko_obs.Flight.t option;
  hist_ckpt : Gecko_obs.Metrics.histogram option;
  hist_rollback : Gecko_obs.Metrics.histogram option;
}

let cycle_time st = st.k_cycle_time
let epc st = st.k_epc
let core st = st.board.Board.device.Device.core

let refresh_obs st = st.ph.next_obs <- Monitor.next_sample_time st.monitor

(* --- fault injection -------------------------------------------------- *)

let consult st site =
  match st.injector with None -> false | Some f -> f site

(* A forced power failure is a hard supply collapse: the capacitor is
   emptied on the spot and every existing voltage check (per-word inside
   the checkpoint ISR, per-instruction in the main loop) converts it
   into the same partial-checkpoint / brownout behaviour a genuine
   outage at that instant would produce.  Nothing downstream is
   scripted. *)
let force_power_failure st = Capacitor.set_voltage st.cap 0.

(* --- flight recorder --------------------------------------------------- *)

(* Pure observation: a note reads the clock and the capacitor and writes
   a preallocated ring slot.  No injector consultation, no physics —
   runs with and without a recorder are semantically identical. *)
let flight_note st ?(arg = 0) ev =
  match st.flight with
  | None -> ()
  | Some fl ->
      Gecko_obs.Flight.record fl ~t_sim:st.ph.time ~arg
        ~v:(Capacitor.voltage st.cap) ev

let flight_ids = function
  | Ev_boot m -> ("boot", Policy.mode_to_int m)
  | Ev_restore_jit -> ("restore_jit", 0)
  | Ev_rollback b -> ("rollback", b)
  | Ev_fresh_start -> ("fresh_start", 0)
  | Ev_backup_signal early -> ("backup_signal", if early then 1 else 0)
  | Ev_checkpoint -> ("checkpoint_commit", 0)
  | Ev_checkpoint_failed -> ("checkpoint_failed", 0)
  | Ev_brownout -> ("brownout", 0)
  | Ev_detection -> ("detection", 0)
  | Ev_reenable -> ("reenable", 0)
  | Ev_completion -> ("completion", 0)

let sleep_step = 100e-6

(* Slots per event-log chunk. *)
let ev_chunk = 32

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

(* Windows are sorted and disjoint, and time is monotone: advance the
   cursor past expired windows, then either enter the window under the
   cursor or idle until it starts.  Amortized O(1) per instruction
   instead of O(windows). *)
let refresh_attack st =
  if st.ph.time >= st.ph.next_change then begin
    let n = Array.length st.windows in
    let i = ref st.win_idx in
    while !i < n && st.ph.time >= st.windows.(!i).Schedule.t_end do incr i done;
    st.win_idx <- !i;
    if !i >= n then begin
      st.ph.cur_amp <- 0.;
      st.ph.cur_harvest_w <- 0.;
      st.ph.next_change <- infinity
    end
    else begin
      let w = st.windows.(!i) in
      if st.ph.time >= w.Schedule.t_start then begin
        st.ph.cur_amp <- Attack.induced_amplitude ~profile:st.profile w.Schedule.attack;
        st.ph.cur_harvest_w <- Attack.harvestable_power w.Schedule.attack;
        st.ph.next_change <- w.Schedule.t_end;
        flight_note st ~arg:!i "attack_window"
      end
      else begin
        st.ph.cur_amp <- 0.;
        st.ph.cur_harvest_w <- 0.;
        st.ph.next_change <- w.Schedule.t_start
      end
    end
  end

(* --- time & energy --------------------------------------------------- *)

(* One physics step, and the only copy of the capacitor/harvester float
   sequence: drain [e] joules, source the harvester current (plus any
   attack-harvested power) over [dt] seconds at the drained voltage, and
   advance the clock by [dt].  Every instruction ([spend_fast]), the
   runtime's own work ([spend]), sleep and reboot all run it.  Every
   expression is capacitor.ml's [drain] then [source_current] of
   harvester.ml's [current], operation for operation, so the voltage
   trajectory is bit-identical to the frozen reference's.  It is inlined
   instead of calling those functions: without flambda each
   cross-module call boxes its floats, which costs more than the float
   work it wraps.  [min]/[max] are spelled as float comparisons — the
   stdlib's polymorphic versions give the same result on the non-NaN
   values involved.  When no attack window is harvesting,
   [cur_harvest_w = 0.], and adding [0.] to the harvester current
   cannot change whether or how it charges, so the term is skipped. *)
let[@inline] physics st dt e =
  let cap = st.cap in
  let ph = st.ph in
  let open Capacitor in
  let v0 = cap.voltage in
  let v1 =
    if e > 0. then begin
      let stored = 0.5 *. cap.capacitance *. v0 *. v0 in
      let removed = if e <= stored then e else stored in
      let v = sqrt (2. *. (stored -. removed) /. cap.capacitance) in
      cap.voltage <- v;
      cap.drained_total <- cap.drained_total +. removed;
      v
    end
    else v0
  in
  let i =
    if st.k_harv_const then ph.k_harv_pw /. (if v1 >= 0.5 then v1 else 0.5)
    else if st.k_harv_thev then
      let x = (ph.k_thev_vs -. v1) /. ph.k_thev_r in
      if 0. >= x then 0. else x
    else Harvester.current st.k_harv ~time:ph.time ~v:v1
  in
  let i =
    if ph.cur_harvest_w > 0. then
      i +. (ph.cur_harvest_w /. (if v1 >= 0.5 then v1 else 0.5))
    else i
  in
  if i > 0. && dt > 0. then begin
    let e0 = 0.5 *. cap.capacitance *. v1 *. v1 in
    let dv = i *. dt /. cap.capacitance in
    let v' = v1 +. dv in
    let v2 = if cap.v_max <= v' then cap.v_max else v' in
    cap.voltage <- v2;
    cap.sourced_total <-
      cap.sourced_total +. ((0.5 *. cap.capacitance *. v2 *. v2) -. e0)
  end;
  ph.time <- ph.time +. dt

let bucket_index st = int_of_float (st.ph.time /. st.tl_bucket)

let account_app_seconds st s =
  if st.tl_bucket > 0. then begin
    let i = bucket_index st in
    if i >= 0 && i < Array.length st.tl_app then
      st.tl_app.(i) <- st.tl_app.(i) +. s
  end

(* The runtime's physics step: [cycles] of core time and energy plus
   [extra] joules (NVM traffic), through the shared kernel.  The work
   that is no decoded slot comes here: the JIT-checkpoint ISR, rollback,
   recovery slices, JIT restore, the progress flag and a restart. *)
let spend st cycles ~extra =
  physics st
    (float_of_int cycles *. cycle_time st)
    ((float_of_int cycles *. epc st) +. extra)

let nvm_extra st ~reads ~writes =
  (float_of_int reads *. st.k_nvm_read_e)
  +. (float_of_int writes *. st.k_nvm_write_e)

(* --- observability ---------------------------------------------------- *)

let event_name = function
  | Ev_boot _ -> "boot"
  | Ev_restore_jit -> "restore_jit"
  | Ev_rollback _ -> "rollback"
  | Ev_fresh_start -> "fresh_start"
  | Ev_backup_signal true -> "backup_signal_early"
  | Ev_backup_signal false -> "backup_signal"
  | Ev_checkpoint -> "checkpoint"
  | Ev_checkpoint_failed -> "checkpoint_failed"
  | Ev_brownout -> "brownout"
  | Ev_detection -> "detection"
  | Ev_reenable -> "reenable"
  | Ev_completion -> "completion"

let trace_category = function
  | Ev_boot _ | Ev_brownout -> "power"
  | Ev_restore_jit | Ev_checkpoint | Ev_checkpoint_failed -> "checkpoint"
  | Ev_rollback _ | Ev_fresh_start -> "recovery"
  | Ev_backup_signal _ -> "monitor"
  | Ev_detection | Ev_reenable -> "defense"
  | Ev_completion -> "app"

let sample_voltage st =
  match st.trace with
  | None -> ()
  | Some tr ->
      Gecko_obs.Trace.counter tr ~cat:"energy" ~ts:st.ph.time "cap_voltage"
        (Capacitor.voltage st.cap)

(* Voltage gauge sampling cadence on the trace (simulated time). *)
let vsample_period = 0.5e-3

let trace_span st ~t0 ~cat name =
  match st.trace with
  | None -> ()
  | Some tr ->
      Gecko_obs.Trace.complete tr ~cat ~ts:t0 ~dur:(st.ph.time -. t0) name

let hist_observe h v =
  match h with None -> () | Some h -> Gecko_obs.Metrics.observe h v

let record st kind =
  if st.opts.record_events then begin
    if st.ev_len = Array.length st.ev_times then begin
      if st.ev_len > 0 then st.ev_full <- (st.ev_times, st.ev_kinds) :: st.ev_full;
      st.ev_times <- Array.make ev_chunk 0.;
      st.ev_kinds <- Array.make ev_chunk Ev_completion;
      st.ev_len <- 0
    end;
    st.ev_times.(st.ev_len) <- st.ph.time;
    st.ev_kinds.(st.ev_len) <- kind;
    st.ev_len <- st.ev_len + 1
  end;
  if st.tracing then begin
    (match st.trace with
    | Some tr ->
        Gecko_obs.Trace.instant tr ~cat:(trace_category kind) ~ts:st.ph.time
          (event_name kind)
    | None -> ());
    sample_voltage st
  end;
  (match st.flight with
  | None -> ()
  | Some _ ->
      let name, arg = flight_ids kind in
      flight_note st ~arg name);
  (* The event itself happened; the injector may kill the supply right
     at it (e.g. the instant the backup signal fires, or the instant a
     checkpoint completes). *)
  if consult st (S_event kind) then force_power_failure st

(* --- power transitions ----------------------------------------------- *)

let shutdown st =
  if st.tracing && st.powered then
    trace_span st ~t0:st.ph.boot_time ~cat:"power" "power_on";
  st.powered <- false;
  Monitor.arm_wake st.monitor;
  Monitor.sync st.monitor ~time:st.ph.time;
  refresh_obs st

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
  if monitor_is_gecko st then begin
    Monitor.set_enabled st.monitor (Policy.monitor_enabled m);
    refresh_obs st
  end

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
  flight_note st "checkpoint_begin";
  spend st Cost.jit_isr_overhead_cycles ~extra:0.;
  (* One word writer for every NVM word the ISR writes, SRAM sections
     first, then registers/PC/ACK: each word is an injection site (a
     forced collapse before word [k] leaves a checkpoint cut short at
     exactly that word), costs one NVM write (an SRAM word also reads
     its source) and checks the supply before [store] commits it.  The
     first word that browns out fails the checkpoint; the rest are
     skipped. *)
  let kw = ref 0 in
  let failed = ref false in
  let word ~reads store =
    if not !failed then begin
      if consult st (S_ckpt_word !kw) then force_power_failure st;
      incr kw;
      spend st Cost.nvm_write_cycles ~extra:(nvm_extra st ~reads ~writes:1);
      if Capacitor.voltage st.cap <= st.board.Board.v_off then failed := true
      else store ()
    end
  in
  let jit_word off v =
    word ~reads:0 (fun () -> Nvm.write st.nvm (jit_cell st off) v)
  in
  for _ = 1 to ctpl_sram_words do
    word ~reads:1 ignore
  done;
  Array.iteri (fun i v -> jit_word (Link.Cells.jit_regs + i) v) st.regs;
  jit_word Link.Cells.jit_pc st.pc;
  (* The ACK toggle is the last write — the checkpoint barrier. *)
  if not !failed then
    jit_word Link.Cells.jit_ack
      (Nvm.read st.nvm (jit_cell st Link.Cells.jit_ack) lxor 1);
  if !failed then begin
    st.jit_checkpoint_failures <- st.jit_checkpoint_failures + 1;
    record st Ev_checkpoint_failed;
    brownout st
  end
  else begin
    (* The stage is part of the checkpointed volatile state. *)
    st.io_staged_ckpt <- st.io_staged;
    record st Ev_checkpoint
  end

(* The runtime's timed entry points: the trace span and the latency
   histogram around [work]. *)
let timed st hist ~cat name work =
  let t0 = st.ph.time in
  work st;
  trace_span st ~t0 ~cat name;
  hist_observe hist (st.ph.time -. t0)

(* The JIT checkpoint ISR latency — from backup signal to the ACK write
   (or the brownout that killed it) — is the window the attacker races. *)
let jit_checkpoint st =
  timed st st.hist_ckpt ~cat:"checkpoint" "jit_checkpoint_isr"
    jit_checkpoint_work

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

(* GECKO restores the boundary's live registers from their coloured
   slots, then recomputes the pruned ones through recovery slices. *)
let gecko_restore st bid site =
  spend st Cost.rollback_overhead_cycles ~extra:0.;
  Array.fill st.regs 0 Reg.count 0;
  match Meta.boundary_info st.meta bid with
  | Some info ->
      List.iter
        (fun (r : Meta.restore) ->
          site ();
          spend st Cost.nvm_read_cycles ~extra:(nvm_extra st ~reads:1 ~writes:0);
          st.regs.(Reg.to_int r.Meta.r_reg) <-
            Nvm.read st.nvm (gecko_cell st r.Meta.r_reg r.Meta.r_color))
        info.Meta.restores;
      List.iter
        (fun rec_ ->
          site ();
          run_recovery_slice st rec_)
        info.Meta.recoveries
  | None -> ()

(* Ratchet restores every register from the committed parity's buffer. *)
let ratchet_restore st _bid site =
  let parity = Nvm.read st.nvm (sys_cell st Link.Cells.sys_parity) in
  List.iter
    (fun r ->
      site ();
      spend st Cost.nvm_read_cycles ~extra:(nvm_extra st ~reads:1 ~writes:0);
      st.regs.(Reg.to_int r) <- Nvm.read st.nvm (ratchet_cell st parity r))
    Reg.all

(* Rollback to the last committed boundary, the one body behind both
   schemes: read the boundary id, start afresh if none committed, else
   let the scheme's [restore st bid site] rebuild the registers —
   calling [site ()], the injection site [S_rollback_step k], before
   each restore step — and resume after the boundary.  Anything staged
   after the committed boundary is discarded first: the region that
   produced it re-executes from the restore point (Ratchet never
   stages). *)
let rollback st restore =
  timed st st.hist_rollback ~cat:"recovery" "rollback" (fun st ->
      st.io_staged <- [];
      let bid = Nvm.read st.nvm (sys_cell st Link.Cells.sys_boundary) - 1 in
      if bid < 0 then begin
        record st Ev_fresh_start;
        fresh_start st
      end
      else begin
        st.rollbacks <- st.rollbacks + 1;
        record st (Ev_rollback bid);
        let kr = ref 0 in
        restore st bid (fun () ->
            if consult st (S_rollback_step !kr) then force_power_failure st;
            incr kr);
        st.pc <- Hashtbl.find st.image.Link.boundary_index bid + 1
      end)

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
      record st (Ev_backup_signal (st.ph.time -. st.ph.boot_time < st.t_min_on))
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
      let early = st.ph.time -. st.ph.boot_time < st.t_min_on in
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
          rollback st gecko_restore)

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
  | Scheme.Ratchet -> rollback st ratchet_restore
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
      | Policy.Rollback -> rollback st gecko_restore)

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
    physics st latency (core st).Device.reboot_energy;
    if Capacitor.voltage st.cap > st.board.Board.v_off then begin
      st.boot_inhibited <- false;
      st.powered <- true;
      st.progress_written <- false;
      st.ph.boot_time <- st.ph.time;
      Monitor.arm_backup st.monitor;
      Monitor.sync st.monitor ~time:st.ph.time;
      record st (Ev_boot st.mode);
      boot_protocol st;
      refresh_obs st
    end
    else st.boot_inhibited <- true
  end

(* --- instruction execution ------------------------------------------- *)

(* Each sensor read draws from a stream keyed on (run seed, draw index,
   port), so replays are deterministic and independent of execution
   history.  The generator itself is hoisted per run and reseeded in
   place — same values as a fresh [Rng.create] per draw, no allocation. *)
let io_in_value st port =
  Gecko_util.Rng.reseed st.rng_io
    ((st.opts.seed * 1_000_003) + (st.io_in_count * 31) + port);
  st.io_in_count <- st.io_in_count + 1;
  Gecko_util.Rng.int st.rng_io 1024

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
  if not st.opts.record_events then
    st.completion_times <- st.ph.time :: st.completion_times;
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

(* --- decoded instruction semantics ------------------------------------ *)

(* One decoded slot's physics: the shared [physics] kernel (inlined
   here, so the dispatcher pays no call for it) plus the counters.  [c]
   is the instruction's application-cycle count, 0 for
   compiler-inserted instrumentation (whose cycles the caller books
   under [instrumentation_cycles]) and for [Halt] (which books none);
   folding the accounting in here keeps the dispatcher at one call per
   instruction, which without flambda is a measurable share of the
   loop. *)
let spend_fast st dt e c =
  st.instrs <- st.instrs + 1;
  physics st dt e;
  st.app_cycles <- st.app_cycles + c;
  if st.k_tl_on && c > 0 then account_app_seconds st dt

(* A region commit, the one body behind both the checked step and
   [step_block]'s steady commit: the boundary-id write at the slot's
   decoded cost, the detection flag once per power cycle, then the
   scheme's commit — Ratchet flips its register-buffer parity, GECKO
   appends the staged io_log records atomically and steps the policy
   (Probe re-enables JIT here). *)
let commit_boundary st pc id =
  let d = st.dec in
  st.pc <- pc + 1;
  st.boundary_commits <- st.boundary_commits + 1;
  spend_fast st (Array.unsafe_get d.Decode.dt pc) (Array.unsafe_get d.Decode.en pc) 0;
  Nvm.write st.nvm (sys_cell st Link.Cells.sys_boundary) (id + 1);
  flight_note st ~arg:id "boundary";
  if not st.progress_written then begin
    spend st Cost.nvm_write_cycles ~extra:(nvm_extra st ~reads:0 ~writes:1);
    Nvm.write st.nvm (sys_cell st Link.Cells.sys_progress) 1;
    st.progress_written <- true
  end;
  (match st.meta.Meta.scheme with
  | Scheme.Ratchet ->
      let parity = Nvm.read st.nvm (sys_cell st Link.Cells.sys_parity) in
      Nvm.write st.nvm (sys_cell st Link.Cells.sys_parity) (1 - parity)
  | Scheme.Gecko | Scheme.Gecko_noprune ->
      (* Both lists are newest-first, so prepending the stage keeps the
         log in emission order. *)
      if st.io_staged <> [] then begin
        flight_note st ~arg:(List.length st.io_staged) "io_commit";
        st.io_log <- st.io_staged @ st.io_log;
        st.io_staged <- []
      end;
      let mode' = Policy.on_region_commit st.mode in
      if st.mode = Policy.Probe && mode' = Policy.Jit_on then begin
        st.reenables <- st.reenables + 1;
        record st Ev_reenable
      end;
      if mode' <> st.mode then set_mode st mode'
  | Scheme.Nvp -> ());
  st.instrumentation_cycles <-
    st.instrumentation_cycles + Array.unsafe_get d.Decode.cyc pc

(* Run the decoded slots [pc, endp) with no per-instruction check
   between them: the block guard proved them all no-ops, or the range is
   the one slot the checked step wraps its checks around.  Register
   indices come from the decoder, which only emits indices below
   [Reg.count], so unchecked array access is safe.  The loop is a local
   tail-recursive function: without flambda a [ref] loop counter lives
   in memory, while a tail-call argument stays in a register.  Arms
   that transfer control set [st.pc] and simply do not recurse. *)
let exec_block st pc endp =
  let d = st.dec in
  let ops = d.Decode.ops in
  let dta = d.Decode.dt in
  let ena = d.Decode.en in
  let cyc = d.Decode.cyc in
  let regs = st.regs in
  let nvm = st.nvm in
  let rec go s =
    if s >= endp then st.pc <- s
    else
      match Array.unsafe_get ops s with
    | Decode.M_li (dd, v) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd v;
        go (s + 1)
    | Decode.M_mov (dd, sv) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd (Array.unsafe_get regs sv);
        go (s + 1)
    | Decode.M_bin_rr (op, dd, a, b) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd
          (Instr.eval_binop op (Array.unsafe_get regs a)
             (Array.unsafe_get regs b));
        go (s + 1)
    | Decode.M_bin_ri (op, dd, a, v) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd
          (Instr.eval_binop op (Array.unsafe_get regs a) v);
        go (s + 1)
    | Decode.M_ld (dd, addr) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd (Nvm.read nvm addr);
        go (s + 1)
    | Decode.M_ld_dyn (dd, base, r) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd (Nvm.read nvm (base + Array.unsafe_get regs r));
        go (s + 1)
    | Decode.M_st (addr, sv) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Nvm.write nvm addr (Array.unsafe_get regs sv);
        go (s + 1)
    | Decode.M_st_dyn (base, r, sv) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Nvm.write nvm (base + Array.unsafe_get regs r) (Array.unsafe_get regs sv);
        go (s + 1)
    | Decode.M_in (dd, port) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        Array.unsafe_set regs dd (io_in_value st port);
        go (s + 1)
    | Decode.M_out (port, sv) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        st.io_out_count <- st.io_out_count + 1;
        (if st.opts.record_io then
           if monitor_is_gecko st then
             st.io_staged <- (port, Array.unsafe_get regs sv) :: st.io_staged
           else st.io_log <- (port, Array.unsafe_get regs sv) :: st.io_log);
        go (s + 1)
    | Decode.M_nop ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        go (s + 1)
    | Decode.M_ckpt (addr, src) ->
        st.ckpt_stores <- st.ckpt_stores + 1;
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s) 0;
        Nvm.write nvm addr (Array.unsafe_get regs src);
        st.instrumentation_cycles <-
          st.instrumentation_cycles + Array.unsafe_get cyc s;
        go (s + 1)
    | Decode.M_ckptdyn (src, parity_addr, cell_base) ->
        st.ckpt_stores <- st.ckpt_stores + 1;
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s) 0;
        let parity = Nvm.read nvm parity_addr in
        Nvm.write nvm
          (cell_base + ((1 - parity) * Reg.count))
          (Array.unsafe_get regs src);
        st.instrumentation_cycles <-
          st.instrumentation_cycles + Array.unsafe_get cyc s;
        go (s + 1)
    | Decode.M_ldslot (dd, addr) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s) 0;
        Array.unsafe_set regs dd (Nvm.read nvm addr);
        st.instrumentation_cycles <-
          st.instrumentation_cycles + Array.unsafe_get cyc s;
        go (s + 1)
    | Decode.M_jmp t ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        st.pc <- t
    | Decode.M_br (cond, r, t, e) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        st.pc <-
          (if Instr.eval_cond cond (Array.unsafe_get regs r) then t else e)
    | Decode.M_call (target, ret) ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        let spi = Reg.to_int Reg.sp in
        let sp = regs.(spi) in
        Nvm.write nvm (st.image.Link.stack_base + sp) ret;
        regs.(spi) <- sp - 1;
        st.pc <- target
    | Decode.M_ret ->
        spend_fast st (Array.unsafe_get dta s) (Array.unsafe_get ena s)
          (Array.unsafe_get cyc s);
        let spi = Reg.to_int Reg.sp in
        let sp = regs.(spi) + 1 in
        regs.(spi) <- sp;
        st.pc <- Nvm.read nvm (st.image.Link.stack_base + sp)
    | Decode.M_boundary _ | Decode.M_halt ->
        (* Solo slots end every block and are dispatched by kind, so no
           stretch holds one; if control ever lands here the slot is
           replayed on the checked path untouched. *)
        st.pc <- s
  in
  go pc

(* One instruction with every per-instruction check around it: the
   injector's fetch site, the attack cursor, voltage sampling, brownout
   and the monitor.  The instruction itself is its decoded slot — a
   region commit or [Halt] through its solo body, any other slot through
   [exec_block] over exactly that slot — so this path and the block
   dispatcher share one instruction semantics and one cost table.  [pc]
   can come from NVM (a [ret], a JIT restore), so the slot read is
   bounds-checked. *)
let step_instr st =
  (* A forced failure at the fetch boundary: the instruction never
     executes — exactly a power failure between two instructions. *)
  if consult st S_instr then begin
    force_power_failure st;
    brownout st
  end
  else begin
  refresh_attack st;
  let d = st.dec in
  let pc = st.pc in
  if pc < 0 || pc >= d.Decode.n_ops then
    invalid_arg
      (Printf.sprintf "Machine: pc %d outside the code [0, %d)" pc d.Decode.n_ops);
  (match Array.unsafe_get d.Decode.ops pc with
  | Decode.M_boundary id -> commit_boundary st pc id
  | Decode.M_halt ->
      spend_fast st (Array.unsafe_get d.Decode.dt pc)
        (Array.unsafe_get d.Decode.en pc) 0;
      complete st
  | _ -> exec_block st pc (pc + 1));
  if st.tracing && st.ph.time >= st.ph.next_vsample then begin
    sample_voltage st;
    st.ph.next_vsample <- st.ph.time +. vsample_period
  end;
  if st.powered && not st.stop then begin
    if Capacitor.voltage st.cap <= st.k_v_off then brownout st
    else if st.ph.time >= st.ph.next_obs then begin
      (* Between ADC sampling ticks every observe call returns [None]
         without touching monitor state, so the calls are skipped
         wholesale; the comparator kind is latency-sensitive and keeps
         per-instruction observation ([next_obs] = -inf). *)
      (match
         Monitor.observe st.monitor ~time:st.ph.time
           ~v_true:(Capacitor.voltage st.cap) ~disturbance:st.ph.cur_amp
       with
      | Some Monitor.Backup -> handle_backup st
      | Some Monitor.Wake | None -> ());
      refresh_obs st
    end
  end
  end

let step_sleep st =
  refresh_attack st;
  let dt = sleep_step in
  (* Below brownout the MCU is completely off; only capacitor leakage
     remains (two orders of magnitude below the LPM draw). *)
  let sleep_draw =
    if Capacitor.voltage st.cap > st.k_v_off then st.k_sleep_power
    else st.k_sleep_power /. 100.
  in
  physics st dt (sleep_draw *. dt);
  if st.ph.time < st.ph.next_wake_check then ()
  else begin
  st.ph.next_wake_check <- st.ph.time +. wake_poll;
  if st.tracing && st.ph.time >= st.ph.next_vsample then begin
    sample_voltage st;
    st.ph.next_vsample <- st.ph.time +. vsample_period
  end;
  let monitor_wake =
    match st.meta.Meta.scheme with
    | Scheme.Nvp | Scheme.Ratchet -> true
    | Scheme.Gecko | Scheme.Gecko_noprune -> Policy.monitor_enabled st.mode
  in
  if monitor_wake then begin
    match
      Monitor.observe st.monitor ~time:st.ph.time
        ~v_true:(Capacitor.voltage st.cap) ~disturbance:st.ph.cur_amp
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
  let thevenin = Harvester.thevenin_params board.Board.harvester in
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
      k_cycle_time = Device.cycle_time device;
      k_epc = Device.energy_per_cycle device;
      k_nvm_read_e = device.Device.core.Device.nvm_read_energy;
      k_nvm_write_e = device.Device.core.Device.nvm_write_energy;
      k_sleep_power = device.Device.core.Device.sleep_power;
      k_v_off = board.Board.v_off;
      k_e_off =
        Capacitor.stored_energy_at ~capacitance:board.Board.capacitance
          board.Board.v_off;
      k_harv = board.Board.harvester;
      k_harv_const =
        (match Harvester.constant_power_watts board.Board.harvester with
        | Some _ -> true
        | None -> false);
      k_harv_thev = Option.is_some thevenin;
      k_tl_on = tl_bucket > 0.;
      ph =
        {
          time = 0.;
          cur_amp = 0.;
          cur_harvest_w = 0.;
          next_change = neg_infinity;
          next_obs = neg_infinity;
          next_vsample = 0.;
          boot_time = 0.;
          next_wake_check = 0.;
          k_harv_pw =
            (match Harvester.constant_power_watts board.Board.harvester with
            | Some p -> p
            | None -> 0.);
          k_thev_vs = (match thevenin with Some (vs, _) -> vs | None -> 0.);
          k_thev_r = (match thevenin with Some (_, r) -> r | None -> 0.);
          horizon = neg_infinity;
          horizon_at = nan;
        };
      dec =
        (match opts.decoded with
        | Some d when Decode.fits d ~device image -> d
        | Some _ | None -> Decode.decode ~device image);
      fast_enabled = opts.fast;
      rng_io = Gecko_util.Rng.create 0;
      regs = Array.make Reg.count 0;
      pc = image.Link.entry;
      powered = opts.start_charged;
      mode = Policy.Jit_on;
      windows = Array.of_list (Schedule.windows opts.schedule);
      win_idx = 0;
      instrs = 0;
      injector = None;
      k_time_limit =
        (match opts.limit with
        | Sim_time t -> Float.min t opts.max_sim_time
        | Completions _ -> opts.max_sim_time);
      stop = false;
      hit_limit = false;
      progress_written = false;
      boot_inhibited = false;
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
      boundary_commits = 0;
      ckpt_stores = 0;
      corruptions = 0;
      io_in_count = 0;
      io_out_count = 0;
      io_log = [];
      io_staged = [];
      io_staged_ckpt = [];
      ev_full = [];
      ev_times = [||];
      ev_kinds = [||];
      ev_len = 0;
      tl_app = Array.make (max n_buckets 1) 0.;
      tl_comp = Array.make (max n_buckets 1) 0;
      tl_bucket;
      tracing = Option.is_some opts.trace;
      trace = opts.trace;
      flight = opts.flight;
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
  refresh_obs st;
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
      c "machine.boundary_commits" st.boundary_commits;
      c "machine.ckpt_stores" st.ckpt_stores;
      c "machine.corruptions" st.corruptions;
      c "machine.instructions" st.instrs;
      c "machine.app_cycles" st.app_cycles;
      c "machine.instrumentation_cycles" st.instrumentation_cycles;
      c "monitor.observations" (Monitor.observations st.monitor);
      c "monitor.fires" (Monitor.fires st.monitor);
      let g name v = Mx.set_gauge (Mx.gauge reg name) v in
      g "machine.sim_time_s" st.ph.time;
      g "machine.app_seconds" (float_of_int st.app_cycles *. cycle_time st);
      g "machine.cap_voltage_final_v" (Capacitor.voltage st.cap);
      g "energy.drained_j" (Capacitor.energy_drained_total st.cap);
      g "energy.sourced_j" (Capacitor.energy_sourced_total st.cap)

(* The event log oldest first. *)
let event_list st =
  let acc = ref [] in
  let push ts ks n =
    for i = n - 1 downto 0 do
      acc := { ev_time = ts.(i); ev_kind = ks.(i) } :: !acc
    done
  in
  push st.ev_times st.ev_kinds st.ev_len;
  List.iter (fun (ts, ks) -> push ts ks ev_chunk) st.ev_full;
  !acc

let finish st =
  export_metrics st;
  if st.tracing then sample_voltage st;
  let events = event_list st in
  {
    completions = st.completions;
    completion_times =
      (if st.opts.record_events then
         List.filter_map
           (fun e ->
             match e.ev_kind with
             | Ev_completion -> Some e.ev_time
             | _ -> None)
           events
       else List.rev st.completion_times);
    sim_time = st.ph.time;
    instructions = st.instrs;
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
    misspeculations = 0;
    boundary_commits = st.boundary_commits;
    ckpt_stores = st.ckpt_stores;
    guarded_stores = 0;
    corruptions = st.corruptions;
    io_out_count = st.io_out_count;
    io_log = List.rev st.io_log;
    final_mode = st.mode;
    events;
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

let step_once st =
  if st.stop then false
  else if st.ph.time >= st.k_time_limit then begin
    st.stop <- true;
    st.hit_limit <-
      (match st.opts.limit with Sim_time _ -> true | Completions _ -> false);
    false
  end
  else begin
    (if st.powered then step_instr st else step_sleep st);
    not st.stop
  end

(* --- block dispatch ------------------------------------------------------ *)

(* The block guard, and the one proof that running a stretch of decoded
   slots with the per-instruction checks hoisted out changes nothing: a
   stretch starting now that costs [dt] seconds and [e] joules ends
   before the time limit, the next attack-window edge and the next ADC
   sample, keeps the capacitor above the brown-out floor, and under a
   comparator (whose [next_obs] is [neg_infinity]) is
   [Monitor.quiescent] down to the stretch's lowest voltage.  The
   per-instruction physics are untouched, so a proved stretch is
   bit-identical to the same slots stepped one at a time.  The
   stretch's totals are one rounded sum while the slots accumulate step
   by step, so every comparison carries a small conservative slack; a
   spurious failure just falls back to the checked path.  The stored
   energy is [Capacitor.energy]'s expression, read flat as [physics]
   reads the capacitor. *)
let[@inline] clear st dt e =
  let ph = st.ph in
  let cap = st.cap in
  let open Capacitor in
  let t_end = ((ph.time +. dt) *. 1.000000000001) +. 1e-18 in
  t_end < st.k_time_limit && t_end < ph.next_change
  &&
  let stored = 0.5 *. cap.capacitance *. cap.voltage *. cap.voltage in
  let e_rem = stored -. ((e *. 1.000001) +. 1e-18) in
  e_rem > (st.k_e_off *. 1.000001) +. 1e-18
  && (t_end < ph.next_obs
     || ph.next_obs = neg_infinity
        && Monitor.quiescent st.monitor
             ~v_min:(sqrt (2. *. e_rem /. cap.capacitance) *. 0.999999)
             ~disturbance:ph.cur_amp)

(* Where the unchecked stretch from [pc] ends: the block end when the
   whole suffix is [clear]; otherwise (typically an ADC sample lands
   mid-block) the end of the longest clear prefix, walked slot by slot.
   Every slot retires one instruction, so any cut is a point where
   control can stop; prefix totals are differences of the decoder's
   suffix sums.  A comparator gets no prefix: once the whole suffix's
   quiescence proof fails, per-instruction observation really is
   required.  [pc] itself means no stretch. *)
let[@inline] fast_end st pc =
  let d = st.dec in
  let endp = Array.unsafe_get d.Decode.blk_end pc in
  let dt0 = Array.unsafe_get d.Decode.dt_sfx pc in
  let e0 = Array.unsafe_get d.Decode.e_sfx pc in
  if clear st dt0 e0 then endp
  else if st.ph.next_obs = neg_infinity then pc
  else begin
    (* The prefix ending at [endp] is the whole suffix, which failed. *)
    let m = ref pc in
    while
      !m + 1 < endp
      && clear st
           (dt0 -. Array.unsafe_get d.Decode.dt_sfx (!m + 1))
           (e0 -. Array.unsafe_get d.Decode.e_sfx (!m + 1))
    do
      incr m
    done;
    !m
  end

(* Under a comparator the checked step observes after every slot; a
   proved stretch of [n] slots skipped [n] observes that [clear] proved
   no-ops, and counts them, so [monitor.observations] does not depend on
   the dispatch mode. *)
let[@inline] count_skipped st n =
  if st.ph.next_obs = neg_infinity then Monitor.skip st.monitor n

(* One main-loop turn.  With no injector or trace armed, a powered run
   takes the longest stretch [fast_end] proves, or a region commit whose
   decoded cost [clear] proves — a commit's cost is its decoded [dt]/[en]
   once the power cycle's progress flag is written (staging, the policy
   step and its mode write are free); anything else (sleeping, halt, a
   first commit, a pending monitor/attack/limit event, low energy) is
   one checked step.  [run_state] loops on it, and so does a [Step]
   client that has removed its injector; [Step.step] is always one
   checked step, since fault-injection sites are per instruction by
   definition. *)
let step_block st =
  let d = st.dec in
  let pc = st.pc in
  if
    (not st.fast_enabled) || (not st.powered) || st.stop
    || (match st.injector with None -> false | Some _ -> true)
    || st.tracing || pc < 0 || pc >= d.Decode.n_ops
  then step_once st
  else
    match Array.unsafe_get d.Decode.ops pc with
    | Decode.M_boundary id ->
        if
          st.progress_written
          && clear st (Array.unsafe_get d.Decode.dt pc)
               (Array.unsafe_get d.Decode.en pc)
        then begin
          commit_boundary st pc id;
          count_skipped st 1;
          true
        end
        else step_once st
    | Decode.M_halt -> step_once st
    | _ ->
        let endp = fast_end st pc in
        if endp > pc then begin
          exec_block st pc endp;
          count_skipped st (endp - pc);
          true
        end
        else step_once st

let run_state st =
  while step_block st do
    ()
  done;
  finish st

let run ~board ~image ~meta opts =
  run_state (make_state ~board ~image ~meta opts)

let data_snapshot st =
  Array.init st.image.Link.data_words (fun i -> Nvm.read st.nvm i)

(* Every field that a step can change is either a mutable field of
   [state] (copied by the [with]) or lives in one of the structures
   copied here; the rest ([dec], [image], [board], [windows], the
   per-device constants) is never written after [make_state].  The
   observers are copied too, and the histograms rebound on the copy, so
   the template is only ever read — domains may fork one template
   concurrently.

   [~schedule] installs attack windows on a schedule-free template
   (whose cursor is still at 0).  That is exact when every step so far
   started before the first window: such a step saw [cur_amp =
   cur_harvest_w = 0.], exactly as the scheduled run's step did, and
   block chunking never changes the physics.  Resetting [next_change]
   makes the next step enter the windows from the first. *)
let fork ?schedule st =
  if Option.is_some st.trace then
    invalid_arg "Machine.Step.fork: the handle carries a trace";
  let opts, windows, ph =
    match schedule with
    | None -> (st.opts, st.windows, { st.ph with time = st.ph.time })
    | Some sched ->
        if Array.length st.windows > 0 then
          invalid_arg "Machine.Step.fork: the handle already has a schedule";
        let horizon =
          if st.ph.time = st.ph.horizon_at then st.ph.horizon else st.ph.time
        in
        (match Schedule.windows sched with
        | w :: _ when w.Schedule.t_start < horizon ->
            invalid_arg
              "Machine.Step.fork: the schedule starts before the horizon"
        | _ -> ());
        ( { st.opts with schedule = sched },
          Array.of_list (Schedule.windows sched),
          { st.ph with next_change = neg_infinity } )
  in
  let metrics = Option.map Gecko_obs.Metrics.copy opts.metrics in
  let flight = Option.map Gecko_obs.Flight.copy st.flight in
  let hist name = Option.map (fun r -> Gecko_obs.Metrics.histogram r name) metrics in
  {
    st with
    opts = { opts with metrics; flight };
    windows;
    ph;
    nvm = Nvm.copy st.nvm;
    cap = Capacitor.copy st.cap;
    monitor = Monitor.copy st.monitor;
    rng_io = Gecko_util.Rng.copy st.rng_io;
    regs = Array.copy st.regs;
    ev_times = Array.copy st.ev_times;
    ev_kinds = Array.copy st.ev_kinds;
    tl_app = Array.copy st.tl_app;
    tl_comp = Array.copy st.tl_comp;
    injector = None;
    flight;
    hist_ckpt = hist "machine.jit_checkpoint_isr_s";
    hist_rollback = hist "machine.rollback_s";
  }

(* Run every step that starts before [t] on a schedule-free handle.
   Posing [t] as the next attack edge makes block dispatch stop short of
   it, just as a scheduled run's dispatch stops short of its first
   window; the first step at or after [t] refreshes the cursor and finds
   no window. *)
let advance_to st t =
  if Array.length st.windows > 0 then
    invalid_arg "Machine.Step.advance_to: the handle has a schedule";
  if st.ph.time < t then begin
    st.ph.next_change <- t;
    while st.ph.time < t && step_block st do
      ()
    done;
    st.ph.horizon <- t;
    st.ph.horizon_at <- st.ph.time
  end

module Step = struct
  type handle = state

  let start ~board ~image ~meta opts = make_state ~board ~image ~meta opts
  let set_injector st f = st.injector <- f
  let step = step_once
  let step_block = step_block
  let fork = fork
  let advance_to = advance_to
  let finished st = st.stop
  let time st = st.ph.time
  let instructions st = st.instrs
  let powered st = st.powered
  let mode st = st.mode
  let metrics st = st.opts.metrics
  let flight st = st.flight
  let force_power_failure = force_power_failure
  let outcome = finish
  let nvm_data = data_snapshot
end

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
