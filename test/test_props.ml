(* Property-based tests: random programs through the whole stack.

   The central properties mirror the paper's guarantees:
   - every scheme is crash-consistent under arbitrary outage trains;
   - GECKO additionally stays crash-consistent while a resonant EMI
     attack manipulates the voltage monitor;
   - the compiler's static invariants (idempotence, slot colouring,
     accounting) hold on every generated program. *)

open Gecko_isa
module Core = Gecko_core
module M = Gecko_machine
module H = Gecko_energy.Harvester
module Inject = Gecko_faultinject.Inject
module Explore = Gecko_faultinject.Explore

let compile scheme seed = Core.Pipeline.compile scheme (Gen_prog.generate_mixed seed)

(* Outage-prone board: tiny storage, weak harvester, fast boots. *)
let crashy_board () =
  let device =
    let d = Gecko_devices.Catalog.evaluation_board in
    {
      d with
      Gecko_devices.Device.core =
        {
          d.Gecko_devices.Device.core with
          Gecko_devices.Device.reboot_latency = 2e-4;
          reboot_energy = 6e-7;
        };
    }
  in
  {
    (M.Board.default ~device
       ~harvester:(H.thevenin ~v_source:3.3 ~r_source:2000.) ())
    with
    M.Board.capacitance = 0.6e-6;
  }

let run_to_completion ~board ~image ~meta ~schedule =
  M.Machine.run_with_nvm ~board ~image ~meta
    {
      M.Machine.default_options with
      schedule;
      max_sim_time = 120.;
      seed = 3;
    }

let crash_consistent scheme ~attacked seed =
  let p, meta = compile scheme seed in
  let image = Link.link p in
  let board = crashy_board () in
  let golden = M.Machine.golden_nvm ~board ~image ~meta in
  let schedule =
    if attacked then
      Gecko_emi.Schedule.always
        (Gecko_emi.Attack.remote ~distance_m:0.1
           (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:20.))
    else Gecko_emi.Schedule.empty
  in
  let o, nvm = run_to_completion ~board ~image ~meta ~schedule in
  o.M.Machine.completions = 1 && nvm = golden

let seed_gen = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 99999)

let prop_crash_consistency scheme =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "%s crash-consistent on random programs"
         (Core.Scheme.to_string scheme))
    seed_gen
    (fun seed -> crash_consistent scheme ~attacked:false seed)

let prop_gecko_under_attack =
  QCheck.Test.make ~count:50
    ~name:"GECKO crash-consistent under resonant EMI attack" seed_gen
    (fun seed -> crash_consistent Core.Scheme.Gecko ~attacked:true seed)

let prop_compiler_invariants =
  QCheck.Test.make ~count:120 ~name:"compiler invariants on random programs"
    seed_gen (fun seed ->
      let p, meta = compile Core.Scheme.Gecko seed in
      let s = meta.Core.Meta.stats in
      (* Verification passes already ran inside the pipeline; re-check the
         externally visible invariants. *)
      Core.Regions.violations p = []
      && Core.Verify.(coloring (scan p meta)) = Ok ()
      && s.Core.Meta.kept + s.Core.Meta.pruned = s.Core.Meta.candidates
      && Core.Pipeline.checkpoint_store_count p = s.Core.Meta.kept)

let prop_cross_scheme_agreement =
  QCheck.Test.make ~count:25
    ~name:"all schemes compute the same final state" seed_gen (fun seed ->
      let board = M.Board.default () in
      let final scheme =
        let p, meta = compile scheme seed in
        let image = Link.link p in
        let _, nvm =
          M.Machine.run_with_nvm ~board ~image ~meta
            M.Machine.default_options
        in
        nvm
      in
      let reference = final Core.Scheme.Nvp in
      List.for_all
        (fun s -> final s = reference)
        [ Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune; Core.Scheme.Gecko ])

(* Physics-level properties. *)

let prop_capacitor_bounds =
  QCheck.Test.make ~count:200 ~name:"capacitor voltage stays in range"
    QCheck.(triple (float_bound_inclusive 3.3) pos_float pos_float)
    (fun (v0, joules, amps) ->
      let c =
        Gecko_energy.Capacitor.create ~capacitance:1e-4 ~v_max:3.3 ~v_init:v0
      in
      ignore (Gecko_energy.Capacitor.drain c (Float.min joules 1.0));
      Gecko_energy.Capacitor.source_current c ~amps:(Float.min amps 10.)
        ~dt:1e-3;
      let v = Gecko_energy.Capacitor.voltage c in
      v >= 0. && v <= 3.3)

let prop_path_loss_monotone =
  QCheck.Test.make ~count:100 ~name:"induced amplitude decays with distance"
    QCheck.(pair (float_range 0.1 4.9) (float_range 0.05 1.0))
    (fun (d, step) ->
      let profile = Gecko_emi.Coupling.profile [ Gecko_emi.Coupling.peak ~f0_mhz:27. ~half_width_mhz:6. ~gain:3. ] in
      let amp dist =
        Gecko_emi.Attack.induced_amplitude ~profile
          (Gecko_emi.Attack.remote ~distance_m:dist
             (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:30.))
      in
      amp d >= amp (d +. step))

let prop_amplitude_monotone_power =
  QCheck.Test.make ~count:100 ~name:"induced amplitude grows with power"
    QCheck.(pair (float_range 0. 30.) (float_range 0.1 5.))
    (fun (p, dp) ->
      let profile = Gecko_emi.Coupling.profile [ Gecko_emi.Coupling.peak ~f0_mhz:27. ~half_width_mhz:6. ~gain:3. ] in
      let amp power =
        Gecko_emi.Attack.induced_amplitude ~profile
          (Gecko_emi.Attack.remote ~distance_m:1.
             (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:power))
      in
      amp (p +. dp) >= amp p)

let prop_asm_roundtrip =
  QCheck.Test.make ~count:120 ~name:"assembly round-trips" seed_gen (fun seed ->
      let p = Gen_prog.generate_mixed seed in
      let text = Asm.to_string p in
      match Asm.parse text with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok p' -> Asm.to_string p' = text)

(* Untrusted [.gasm]: a one-line edit of a workload listing (delete,
   truncate, duplicate or byte-flip a line, or retarget a jump) either
   fails to parse or compiles under every scheme — an [Error] or an
   [Ok], never an exception.  Retargeted jumps are what reach the
   compiler with unreachable blocks and side-entered cycles. *)
let listings =
  lazy
    (Array.of_list
       (List.map
          (fun w ->
            String.split_on_char '\n'
              (Asm.to_string ((Gecko_workloads.Workload.find w).Gecko_workloads.Workload.build ()))
            |> Array.of_list)
          Gecko_workloads.Workload.names))

let mutate_listing seed =
  let module R = Gecko_util.Rng in
  let rng = R.create seed in
  let lines = R.choose rng (Lazy.force listings) in
  let n = Array.length lines in
  let words l = String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "") in
  let jumps =
    List.filter
      (fun k ->
        match words lines.(k) with
        | "jmp" :: _ -> true
        | w :: _ -> String.starts_with ~prefix:"br." w
        | [] -> false)
      (List.init n Fun.id)
  in
  let labels =
    Array.of_list
      (List.filter_map
         (fun l ->
           match words l with
           | w :: _ when l.[0] <> ' ' && l.[0] <> '.' && String.ends_with ~suffix:":" l ->
               Some (String.concat "" (String.split_on_char ':' w))
           | _ -> None)
         (Array.to_list lines))
  in
  let op = R.int rng 5 in
  let k = if op = 4 then R.choose rng (Array.of_list jumps) else R.int rng n in
  let l = lines.(k) in
  let edit =
    match op with
    | 0 -> []
    | 1 -> [ String.sub l 0 (R.int rng (String.length l + 1)) ]
    | 2 -> [ l; l ]
    | 3 when l <> "" ->
        let b = Bytes.of_string l in
        let i = R.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + R.int rng 255)));
        [ Bytes.to_string b ]
    | 3 -> [ l ]
    | _ -> (
        let target = R.choose rng labels in
        match words l with
        | [ "jmp"; _ ] -> [ "    jmp " ^ target ]
        | [ br; r; t; e ] ->
            if R.bool rng then [ Printf.sprintf "    %s %s %s, %s" br r target e ]
            else [ Printf.sprintf "    %s %s %s %s" br r t target ]
        | _ -> [ l ])
  in
  let text =
    String.concat "\n"
      (Array.to_list (Array.sub lines 0 k) @ edit
      @ Array.to_list (Array.sub lines (k + 1) (n - k - 1)))
  in
  (Printf.sprintf "line %d %S -> [%s]" (k + 1) l (String.concat "; " edit), text)

let prop_mutated_asm_no_exception =
  QCheck.Test.make ~count:600
    ~name:"mutated listings parse or compile without an exception" seed_gen
    (fun seed ->
      let what, text = mutate_listing seed in
      match Asm.parse text with
      | exception e ->
          QCheck.Test.fail_reportf "%s: parse raised %s" what (Printexc.to_string e)
      | Error _ -> true
      | Ok p ->
          List.for_all
            (fun scheme ->
              match Core.Pipeline.compile scheme p with
              | _ -> true
              | exception e ->
                  QCheck.Test.fail_reportf "%s: compile as %s raised %s" what
                    (Core.Scheme.to_string scheme) (Printexc.to_string e))
            Core.Scheme.all)

let prop_machine_deterministic =
  QCheck.Test.make ~count:20 ~name:"simulation is deterministic" seed_gen
    (fun seed ->
      let p, meta = compile Core.Scheme.Gecko seed in
      let image = Link.link p in
      let board = crashy_board () in
      let once () =
        let o, nvm = run_to_completion ~board ~image ~meta ~schedule:Gecko_emi.Schedule.empty in
        (o.M.Machine.completions, o.M.Machine.reboots, o.M.Machine.sim_time, nvm)
      in
      once () = once ())

(* --- differential: optimized interpreter vs frozen reference --------- *)

(* [Ref_machine] is a verbatim copy of the interpreter from before the
   hot-path optimizations (attack-window cursor, cached device
   constants, batched ADC observation, hoisted IO RNG).  Every
   optimization must be semantics-preserving, so both interpreters must
   produce identical outcomes — including bit-exact floats, the IO
   stream and the event log — on random programs, schemes, boards and
   attack schedules. *)

let random_schedule seed =
  let rng = Gecko_util.Rng.create (seed + 17) in
  let n = Gecko_util.Rng.int rng 4 in
  let t = ref 0.0 in
  let wins =
    List.init n (fun _ ->
        let gap = float_of_int (1 + Gecko_util.Rng.int rng 40) *. 1e-3 in
        let len = float_of_int (1 + Gecko_util.Rng.int rng 40) *. 1e-3 in
        let t0 = !t +. gap in
        t := t0 +. len;
        let freq = 20. +. float_of_int (Gecko_util.Rng.int rng 15) in
        let power = 10. +. float_of_int (Gecko_util.Rng.int rng 25) in
        Gecko_emi.Schedule.window ~t_start:t0 ~t_end:!t
          (Gecko_emi.Attack.remote ~distance_m:0.1
             (Gecko_emi.Signal.make ~freq_mhz:freq ~power_dbm:power)))
  in
  Gecko_emi.Schedule.make wins

(* Static slot safety (DESIGN.md "Static slot safety"): on call-bearing
   programs, whose callee entry checkpoints can overwrite slots a
   caller's boundary reuses, the default GECKO pipeline leaves no window
   clobber, and every injected fetch-site crash still ends with the
   golden NVM.  One case is a batch of seeds, so the property can also
   demand that it is not vacuous: some seed needed a force-keep. *)
let slot_safety_case seed =
  let metrics = Gecko_obs.Metrics.create () in
  let p, meta =
    Core.Pipeline.compile ~metrics Core.Scheme.Gecko
      (Gen_prog.generate ~calls:true seed)
  in
  let image = Link.link p in
  let board = crashy_board () in
  let opts = Explore.default_opts in
  let golden, _ = Explore.golden ~board ~image ~meta () in
  let sites, _, _ = Inject.census ~board ~image ~meta opts in
  let fetches =
    List.filter
      (fun s -> s.Inject.s_kind = Inject.K_instr)
      (Array.to_list sites)
  in
  (* At most ~300 crashes per program, evenly spread over its fetches. *)
  let stride = max 1 ((List.length fetches + 299) / 300) in
  let replays =
    List.filteri (fun i _ -> i mod stride = 0) fetches
    |> List.map (fun s ->
           Inject.run_with_fires ~board ~image ~meta opts
             ~fires:[ s.Inject.s_ordinal ])
  in
  ( Gecko_obs.Metrics.counter_value
      (Gecko_obs.Metrics.counter metrics "pipeline.slot_force_keeps")
    > 0,
    Core.Verify.(slot_clobbers (scan p meta)) = [],
    List.for_all (fun (_, nvm) -> nvm = golden) replays )

let prop_static_slot_safety =
  QCheck.Test.make ~count:3
    ~name:"force-kept call-bearing programs survive injected crashes"
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       QCheck.Gen.(list_repeat 24 (int_bound 99999)))
    (fun seeds ->
      let cases = List.map slot_safety_case seeds in
      List.exists (fun (forced, _, _) -> forced) cases
      && List.for_all (fun (_, clean, consistent) -> clean && consistent) cases)

(* Project both outcome types onto one comparable shape (the reference
   predates the [instructions] counter, which is therefore excluded). *)
let norm_m (o : M.Machine.outcome) =
  ( ( o.M.Machine.completions,
      o.M.Machine.completion_times,
      o.M.Machine.sim_time,
      o.M.Machine.app_cycles,
      o.M.Machine.app_seconds,
      o.M.Machine.instrumentation_cycles ),
    ( o.M.Machine.jit_checkpoints,
      o.M.Machine.jit_checkpoint_failures,
      o.M.Machine.reboots,
      o.M.Machine.brownouts,
      o.M.Machine.detections,
      o.M.Machine.reenables ),
    ( o.M.Machine.rollbacks,
      o.M.Machine.recovery_block_runs,
      o.M.Machine.corruptions,
      o.M.Machine.io_out_count,
      o.M.Machine.io_log,
      o.M.Machine.final_mode ),
    (match o.M.Machine.timeline with
    | None -> None
    | Some tl ->
        Some
          ( tl.M.Machine.bucket,
            tl.M.Machine.app_seconds_per_bucket,
            tl.M.Machine.completions_per_bucket )),
    List.map (Format.asprintf "%a" M.Machine.pp_event) o.M.Machine.events,
    o.M.Machine.hit_limit )

let norm_r (o : Ref_machine.outcome) =
  ( ( o.Ref_machine.completions,
      o.Ref_machine.completion_times,
      o.Ref_machine.sim_time,
      o.Ref_machine.app_cycles,
      o.Ref_machine.app_seconds,
      o.Ref_machine.instrumentation_cycles ),
    ( o.Ref_machine.jit_checkpoints,
      o.Ref_machine.jit_checkpoint_failures,
      o.Ref_machine.reboots,
      o.Ref_machine.brownouts,
      o.Ref_machine.detections,
      o.Ref_machine.reenables ),
    ( o.Ref_machine.rollbacks,
      o.Ref_machine.recovery_block_runs,
      o.Ref_machine.corruptions,
      o.Ref_machine.io_out_count,
      o.Ref_machine.io_log,
      o.Ref_machine.final_mode ),
    (match o.Ref_machine.timeline with
    | None -> None
    | Some tl ->
        Some
          ( tl.Ref_machine.bucket,
            tl.Ref_machine.app_seconds_per_bucket,
            tl.Ref_machine.completions_per_bucket )),
    List.map (Format.asprintf "%a" Ref_machine.pp_event) o.Ref_machine.events,
    o.Ref_machine.hit_limit )

(* The board's harvester is drawn from every constructor, so the
   machine's shared physics kernel is diffed on each of its branches:
   the constant-power and Thevenin shortcuts and the [Harvester.current]
   fallback for every other shape. *)
let diff_harvester rng =
  match Gecko_util.Rng.int rng 6 with
  | 0 -> H.constant_power 2e-3
  | 1 -> H.thevenin ~v_source:3.3 ~r_source:2000.
  | 2 ->
      H.square_wave ~period:0.02 ~duty:0.55
        (H.thevenin ~v_source:3.3 ~r_source:1500.)
  | 3 ->
      H.scripted
        [
          (0.01, H.thevenin ~v_source:3.3 ~r_source:1500.);
          (0.005, H.none);
          (0.01, H.constant_power 1.5e-3);
        ]
  | 4 -> H.rf_ambient ~seed:(Gecko_util.Rng.int rng 1000) ~mean_power:3e-3 ~flicker:0.3
  | _ -> H.none

let diff_board seed =
  let b =
    {
      (crashy_board ()) with
      M.Board.harvester = diff_harvester (Gecko_util.Rng.create seed);
    }
  in
  if seed mod 2 = 0 then b
  else
    { b with M.Board.monitor_choice = Gecko_devices.Device.Use_comparator }

(* The end-of-run energy gauges (fleet reports aggregate the first two),
   as raw bits so the comparison is exact. *)
let energy_bits reg =
  List.map
    (fun name ->
      Int64.bits_of_float
        (Gecko_obs.Metrics.gauge_value (Gecko_obs.Metrics.gauge reg name)))
    [ "energy.drained_j"; "energy.sourced_j"; "machine.cap_voltage_final_v" ]

let prop_optimized_matches_reference =
  QCheck.Test.make ~count:36
    ~name:"optimized interpreter matches the frozen reference" seed_gen
    (fun seed ->
      let scheme =
        List.nth
          [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune;
            Core.Scheme.Gecko ]
          (seed mod 4)
      in
      (* Half the seeds carry calls, so force-kept slots go through the
         differential too. *)
      let p, meta = Core.Pipeline.compile scheme (Gen_prog.generate_mixed seed) in
      let image = Link.link p in
      let board = diff_board seed in
      let schedule = random_schedule seed in
      (* Arm the flight recorder on the optimized side for half the
         seeds: a pure observer must not perturb a single float of the
         outcome, and the reference knows nothing of it.  Both sides
         export into a metrics registry, whose energy gauges must agree
         bit for bit.  A third of the seeds run the checked path only.
         The odd seeds run a comparator board, where block dispatch
         skips the observes it proves no-ops: the machine runs again in
         the other dispatch mode, and the two registries must persist
         identically, [monitor.observations] included. *)
      let observers = seed mod 2 = 1 in
      let run_machine ~fast =
        let metrics = Gecko_obs.Metrics.create () in
        let o =
          M.Machine.run ~board ~image ~meta
            {
              M.Machine.default_options with
              schedule;
              limit = M.Machine.Sim_time 0.2;
              max_sim_time = 0.25;
              seed;
              restart_on_halt = true;
              record_io = true;
              record_events = true;
              timeline_bucket = Some 0.01;
              metrics = Some metrics;
              flight =
                (if observers then Some (Gecko_obs.Flight.create ~capacity:64 ())
                 else None);
              fast;
            }
        in
        (o, metrics)
      in
      let fast = seed mod 3 <> 0 in
      let o, metrics = run_machine ~fast in
      let rmetrics = Gecko_obs.Metrics.create () in
      let modes_agree =
        seed mod 2 = 0
        ||
        let _, other = run_machine ~fast:(not fast) in
        Gecko_obs.Metrics.(to_persist metrics = to_persist other)
      in
      let r =
        Ref_machine.run ~board ~image ~meta
          {
            Ref_machine.default_options with
            Ref_machine.schedule;
            limit = Ref_machine.Sim_time 0.2;
            max_sim_time = 0.25;
            seed;
            restart_on_halt = true;
            record_io = true;
            record_events = true;
            timeline_bucket = Some 0.01;
            metrics = Some rmetrics;
          }
      in
      norm_m o = norm_r r
      && energy_bits metrics = energy_bits rmetrics
      && modes_agree)

(* The hoisted per-run IO RNG must reproduce the stream the reference
   obtains by allocating a fresh generator per [In]. *)
let prop_rng_reseed_matches_fresh =
  QCheck.Test.make ~count:200 ~name:"Rng.reseed matches a fresh generator"
    seed_gen (fun seed ->
      let shared = Gecko_util.Rng.create 0 in
      Gecko_util.Rng.reseed shared seed;
      let fresh = Gecko_util.Rng.create seed in
      let draws g =
        let out = ref [] in
        for _ = 1 to 5 do
          out := Gecko_util.Rng.int g 1024 :: !out
        done;
        !out
      in
      draws shared = draws fresh)

let prop_io_stream_unchanged =
  QCheck.Test.make ~count:12
    ~name:"hoisted IO RNG leaves the io_log stream unchanged" seed_gen
    (fun seed ->
      let image, meta =
        Gecko_harness.Workbench.compiled Core.Scheme.Nvp
          (Gecko_harness.Workbench.sense_app ())
      in
      let board = crashy_board () in
      let opts_common = (0.15, seed) in
      let sim_t, s = opts_common in
      let o =
        M.Machine.run ~board ~image ~meta
          {
            M.Machine.default_options with
            limit = M.Machine.Sim_time sim_t;
            max_sim_time = sim_t +. 0.05;
            seed = s;
            restart_on_halt = true;
            record_io = true;
          }
      in
      let r =
        Ref_machine.run ~board ~image ~meta
          {
            Ref_machine.default_options with
            Ref_machine.limit = Ref_machine.Sim_time sim_t;
            max_sim_time = sim_t +. 0.05;
            seed = s;
            restart_on_halt = true;
            record_io = true;
          }
      in
      o.M.Machine.io_log <> []
      && o.M.Machine.io_log = r.Ref_machine.io_log)

(* Dynamic WCET: on steady power, consecutive boundary commits are never
   further apart than the compile-time budget. *)
let prop_dynamic_budget =
  QCheck.Test.make ~count:20 ~name:"runtime spans respect the budget" seed_gen
    (fun seed ->
      let budget = 150 in
      let p, meta =
        Core.Pipeline.compile ~budget_cycles:budget Core.Scheme.Gecko
          (Gen_prog.generate_mixed seed)
      in
      ignore meta;
      (* Static check is authoritative; it already ran in the pipeline.
         Re-assert the exposed invariant. *)
      Core.Verify.wcet ~budget p = Ok ())

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "crash-consistency",
        q
          [
            prop_crash_consistency Core.Scheme.Nvp;
            prop_crash_consistency Core.Scheme.Ratchet;
            prop_crash_consistency Core.Scheme.Gecko_noprune;
            prop_crash_consistency Core.Scheme.Gecko;
            prop_gecko_under_attack;
            prop_static_slot_safety;
          ] );
      ( "compiler",
        q [ prop_compiler_invariants; prop_cross_scheme_agreement ] );
      ("asm", q [ prop_asm_roundtrip; prop_mutated_asm_no_exception ]);
      ( "machine",
        q [ prop_machine_deterministic; prop_dynamic_budget ] );
      ( "differential",
        q
          [
            prop_optimized_matches_reference;
            prop_rng_reseed_matches_fresh;
            prop_io_stream_unchanged;
          ] );
      ( "physics",
        q
          [
            prop_capacitor_bounds;
            prop_path_loss_monotone;
            prop_amplitude_monotone_power;
          ] );
    ]
