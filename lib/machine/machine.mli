(** The intermittent-system MCU simulator.

    Executes a linked image with cycle and energy accounting against the
    board's capacitor, harvester, voltage monitor and EMI environment, and
    hosts the runtime of the compiled scheme:

    - {b NVP} (CTPL-style): monitor-triggered JIT checkpoint ISR, restore
      on wake, ACK barrier;
    - {b Ratchet}: boundary commits with parity double buffering, full
      register rollback at boot;
    - {b GECKO}: JIT roll-forward in normal operation, detection via
      ACK/progress checks, monitor disablement and idempotent rollback
      (slot restores + recovery-block execution) under attack, and the
      probe-based return to JIT.

    DoS ping-pong, V_fail-window wakes, partial checkpoints and data
    corruption all emerge from the simulation loop; nothing is scripted. *)

open Gecko_isa
open Gecko_emi

type limit =
  | Sim_time of float  (** Stop at this simulated time (s). *)
  | Completions of int  (** Stop after N application completions. *)

(** Power/runtime events, recorded when [record_events] is set. *)
type event_kind =
  | Ev_boot of Gecko_core.Policy.mode
  | Ev_restore_jit
  | Ev_rollback of int  (** boundary id rolled back to *)
  | Ev_fresh_start
  | Ev_backup_signal of bool  (** [true] when the timer check flagged it *)
  | Ev_checkpoint
  | Ev_checkpoint_failed
  | Ev_brownout
  | Ev_detection
  | Ev_reenable
  | Ev_completion

type event = { ev_time : float; ev_kind : event_kind }

val event_name : event_kind -> string
(** The event's name in exported traces and fault-injection site
    kinds (["boot"], ["backup_signal_early"], ["checkpoint"], …). *)

val pp_event : Format.formatter -> event -> unit

(** Fault-injection sites: the instants at which a run consults the
    injector installed via {!Step.set_injector}.  Returning [true] from
    the injector collapses the supply at exactly that point; everything
    downstream (partial checkpoint, brownout, recovery) then follows
    from the ordinary simulation machinery. *)
type inject_site =
  | S_instr  (** An instruction fetch boundary (the instruction does not
                 execute). *)
  | S_event of event_kind  (** A runtime event was just recorded. *)
  | S_ckpt_word of int
      (** The JIT checkpoint ISR is about to write NVM word [k] (SRAM
          sections first, then registers/PC/ACK) — the word is lost. *)
  | S_rollback_step of int
      (** Restore/recovery step [k] of a rollback. *)

type options = {
  schedule : Schedule.t;
  limit : limit;
  max_sim_time : float;  (** Hard cap regardless of [limit]. *)
  timeline_bucket : float option;
      (** Collect per-bucket app cycles and completions. *)
  seed : int;
  restart_on_halt : bool;
      (** Re-initialize data and re-run on completion (throughput runs). *)
  record_io : bool;
  record_events : bool;
  start_charged : bool;
  trace : Gecko_obs.Trace.t option;
      (** Trace recorder (simulated-time stamps).  Receives instants for
          every runtime event, complete spans for power-on periods,
          checkpoint ISRs and rollbacks, the raw monitor event stream
          (category [monitor]) and a periodic [cap_voltage] counter
          track.  [None] (the default) or a disabled recorder keeps the
          simulation loop on its plain path. *)
  metrics : Gecko_obs.Metrics.registry option;
      (** Metrics sink: end-of-run counters/gauges ([machine.*],
          [monitor.*], [energy.*]) and latency histograms
          ([machine.jit_checkpoint_isr_s], [machine.rollback_s]).
          Counters accumulate across runs sharing a registry. *)
  flight : Gecko_obs.Flight.t option;
      (** Flight recorder — a fixed-capacity ring of the last-N runtime
          events with voltage snapshots, cheap enough for every fleet
          device to carry one.  Receives every {!event_kind} (whether or
          not [record_events] is set) plus [checkpoint_begin],
          [boundary] (arg = boundary id), [io_commit] (arg = records
          committed) and [attack_window] (arg = window index) markers.
          Pure observation: runs with and without a recorder are
          semantically identical.  [None] (the default) or a disabled
          recorder keeps the plain path. *)
  fast : bool;
      (** [true] (the default) runs whole pre-decoded blocks whenever
          the block guard holds; [false] steps one decoded slot per
          turn with every per-instruction check (injector site, attack
          cursor, brownout, monitor) around it.  Both run the same
          decoded slots, so outcomes are identical either way — the
          switch exists to test the block guards and for debugging. *)
  decoded : Decode.t option;
      (** A cached {!Decode.decode} of the run's image (see the
          Workbench decode cache).  [None] (the default) decodes at
          [run] time — O(code size), irrelevant for all but the
          shortest runs.  A value decoded from a different image, or
          for a device with other timing or energy constants
          ({!Decode.fits}), is ignored. *)
}

val default_options : options

type timeline = {
  bucket : float;
  app_seconds_per_bucket : float array;
  completions_per_bucket : int array;
}

type outcome = {
  completions : int;
  completion_times : float list;  (** In order. *)
  sim_time : float;
  instructions : int;
      (** Instructions executed while powered — the simulator's unit of
          interpreter throughput ([instructions /. wall_seconds] is the
          bench harness's [sim_instr_per_sec]). *)
  app_cycles : int;  (** Cycles spent on original program instructions. *)
  app_seconds : float;
  instrumentation_cycles : int;
      (** Cycles spent on compiler-inserted instructions (Ckpt/Boundary). *)
  jit_checkpoints : int;
  jit_checkpoint_failures : int;
  reboots : int;
  brownouts : int;
  detections : int;
  reenables : int;
  rollbacks : int;
  recovery_block_runs : int;
  misspeculations : int;
      (** Always 0: images carry no runtime speculation guards, so no
          rollback replays anything.  Kept for the [bench/perf]
          harness, which still reads it. *)
  boundary_commits : int;
      (** Dynamic [Boundary] executions (region commits). *)
  ckpt_stores : int;
      (** Dynamic [Ckpt]/[CkptDyn] executions (checkpoint slot writes). *)
  guarded_stores : int;
      (** Always 0, for the same reason and reader as
          [misspeculations]. *)
  corruptions : int;  (** Boots that resumed from a corrupt JIT image. *)
  io_out_count : int;
  io_log : (int * int) list;  (** (port, value), in order, if recorded. *)
  final_mode : Gecko_core.Policy.mode;
  timeline : timeline option;
  events : event list;  (** In order, when [record_events] was set. *)
  hit_limit : bool;  (** False if stopped by [max_sim_time] instead. *)
}

val forward_progress : outcome -> float
(** R = forward-progress time / total time (Section IV-A2). *)

val checkpoint_failure_rate : outcome -> float
(** F = N_fail / N_checkpoints (Section IV-B2). *)

val run :
  board:Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  options ->
  outcome

val golden_nvm :
  board:Board.t -> image:Link.image -> meta:Gecko_core.Meta.t -> int array
(** Data-segment snapshot after one uninterrupted run on continuous power
    (the crash-consistency reference). *)

val run_with_nvm :
  board:Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  options ->
  outcome * int array
(** Like {!run} but also returns the final data-segment snapshot. *)

(** Deterministic stepping interface for fault-injection drivers
    (`Gecko_faultinject`) and the fleet's shared prefixes
    (`Gecko_fleet.Shard`).

    A handle is one run of {!run} broken into externally-driven steps; a
    step is one instruction (while powered) or one sleep tick (while
    off).  An installed injector is consulted at every {!inject_site} in
    deterministic order, so "the [n]-th consultation" identifies an
    exact injection point reproducibly across replays of the same
    (board, image, options).

    A run's state between two steps is a plain value: {!fork} copies it,
    so a driver can replay many variants of one run from a shared
    prefix, and {!step_block} finishes a run at block-dispatch speed
    once no injector is installed.  A schedule-free run can also be
    {!advance_to}'d to a time and forked with an attack schedule that
    starts there: the fork continues exactly as a run started at power-on
    with that schedule would. *)
module Step : sig
  type handle

  val start :
    board:Board.t ->
    image:Link.image ->
    meta:Gecko_core.Meta.t ->
    options ->
    handle

  val set_injector : handle -> (inject_site -> bool) option -> unit
  (** Install (or remove) the injector consulted at every site.
      Returning [true] forces a supply collapse at that instant. *)

  val step : handle -> bool
  (** Advance one step on the per-instruction checked path; [false] once
      the run has stopped (limit reached or completed).  Raises
      [Invalid_argument] if control has left the code (a [ret] popped a
      data word, say): ["Machine: pc <n> outside the code [0, <n_ops>)"].
      {!step_block} and {!run} raise the same. *)

  val step_block : handle -> bool
  (** Advance one main-loop turn of {!run}: a whole pre-decoded block
      when the handle has no injector, is not tracing and the block
      guard holds, else one {!step}.  Looping on it from any step
      boundary gives the same outcome and memory as looping on {!step}
      with no injector installed. *)

  val advance_to : handle -> float -> unit
  (** [advance_to h t] runs, on {!step_block}, every step that starts
      before simulated time [t] (none if the clock already reads [t] or
      later), stopping early only if the run finishes.  It poses [t] as
      the next attack edge, so block dispatch stops short of [t] exactly
      as a scheduled run's dispatch stops short of a window starting at
      [t].  [t] becomes the handle's horizon for {!fork}[ ~schedule].
      Raises [Invalid_argument] if the handle has a schedule. *)

  val fork : ?schedule:Gecko_emi.Schedule.t -> handle -> handle
  (** An independent copy of the run at the current step boundary:
      stepping either handle leaves the other untouched, and the copy
      continues exactly as the original would with no injector
      installed.  The immutable parts (board, image, decode) are shared;
      the metrics registry and the flight recorder are copied (see
      {!metrics}, {!flight}), so the copy records on from the template's
      observations and the template is only read — several domains may
      fork one template at once.  The copy has no injector.  Raises
      [Invalid_argument] if the handle carries an enabled trace: a trace
      cannot be split, and would hold the common prefix once per fork.

      [~schedule] installs an attack schedule on the copy.  The handle
      must be schedule-free and the schedule's first window must start
      no earlier than the horizon — the last {!advance_to} target while
      the clock has not moved since, else the current time — so every
      step run so far saw no attack.  The copy then continues exactly as
      a power-on run with that schedule, up to [Monitor.observations] on
      a comparator board (its count of skipped no-op observes depends on
      block chunking; ADC counts do not).  Raises [Invalid_argument]
      otherwise. *)

  val finished : handle -> bool

  val time : handle -> float
  val instructions : handle -> int
  val powered : handle -> bool
  val mode : handle -> Gecko_core.Policy.mode

  val metrics : handle -> Gecko_obs.Metrics.registry option
  (** The registry the run records into (a fork's own copy). *)

  val flight : handle -> Gecko_obs.Flight.t option
  (** The enabled flight recorder the run records into, if any (a fork's
      own copy). *)

  val force_power_failure : handle -> unit
  (** Collapse the supply now (outside any injector callback). *)

  val outcome : handle -> outcome
  (** Close the run's bookkeeping and return the outcome.  Call once,
      after {!step} returned [false] (metrics registries accumulate per
      call). *)

  val nvm_data : handle -> int array
  (** Final data-segment snapshot (the crash-consistency subject). *)
end
