(* The benchmark harness regenerates every table and figure of the
   paper's evaluation (Section VII plus the attack studies of Section
   IV), then runs Bechamel micro-benchmarks of the core primitives.

   Fidelity: `GECKO_BENCH=full` runs the sweep densities recorded in
   EXPERIMENTS.md; the default quick mode uses coarser grids and shorter
   simulated durations (same code paths).

   Besides the ASCII report on stdout, the harness writes
   BENCH_results.json (override with GECKO_BENCH_OUT): each experiment's
   headline scalars plus the micro-benchmark ns/run estimates. *)

module E = Gecko_harness.Experiments
module Core = Gecko_core
module W = Gecko_workloads.Workload
module Json = Gecko_obs.Json
open Gecko_isa

let fidelity =
  match Sys.getenv_opt "GECKO_BENCH" with
  | Some "full" -> E.Full
  | Some ("quick" | "") | None -> E.Quick
  | Some other ->
      Printf.eprintf
        "gecko-bench: unrecognized GECKO_BENCH=%S (expected \"quick\" or \
         \"full\"); falling back to quick fidelity\n%!"
        other;
      E.Quick

(* Every wall-clock figure that lands in BENCH_results.json comes from
   the process-wide Gecko_util.Clock, pointed here at the OS monotonic
   clock (bechamel's CLOCK_MONOTONIC binding) — NTP steps and
   gettimeofday jumps cannot bend a benchmark number.  Gecko_fleet's
   internal telemetry timing goes through the same source. *)
let () =
  Gecko_util.Clock.set_source (fun () ->
      Int64.to_float (Monotonic_clock.now ()) /. 1e9)

let now () = Gecko_util.Clock.now ()

let banner name =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 74 '=') name
    (String.make 74 '=')

let regenerate () =
  List.map
    (fun (name, gen) ->
      let t0 = now () in
      let a : E.artifact = gen fidelity in
      let wall = now () -. t0 in
      banner name;
      print_string a.E.text;
      Printf.printf "[%s: %.2f s]\n" name wall;
      flush stdout;
      (name, a.E.metrics @ [ ("wall_seconds", wall) ]))
    E.artifacts

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let crc32_prog = lazy ((W.find "crc32").W.build ())

(* Real compile+link cost: calls the pipeline directly, never touching
   the Workbench memo table, so every iteration pays the whole pass
   stack.  Labeled "cold" to distinguish it from the cache-hit variant
   below — earlier revisions of this harness left the distinction
   implicit, which made the numbers easy to misread as cached. *)
let bench_compile scheme =
  Test.make
    ~name:
      (Printf.sprintf "compile crc32 as %s (cold)" (Core.Scheme.to_string scheme))
    (Staged.stage (fun () ->
         let p, _meta = Core.Pipeline.compile scheme (Lazy.force crc32_prog) in
         ignore (Link.link p)))

(* The memoized path every experiment and fleet shard actually takes
   after the first compile of a (program, scheme) pair: a mutex-guarded
   hashtable hit. *)
let bench_compile_cached =
  let prog = Lazy.force crc32_prog in
  ignore (Gecko_harness.Workbench.compiled Core.Scheme.Gecko prog);
  Test.make ~name:"compile crc32 as gecko (workbench cache hit)"
    (Staged.stage (fun () ->
         ignore (Gecko_harness.Workbench.compiled Core.Scheme.Gecko prog)))

let bench_simulate scheme =
  let image, meta =
    let p, meta = Core.Pipeline.compile scheme (Lazy.force crc32_prog) in
    (Link.link p, meta)
  in
  let board = Gecko_machine.Board.default () in
  Test.make
    ~name:(Printf.sprintf "simulate crc32 as %s" (Core.Scheme.to_string scheme))
    (Staged.stage (fun () ->
         ignore
           (Gecko_machine.Machine.run ~board ~image ~meta
              Gecko_machine.Machine.default_options)))

let bench_amplitude =
  let profile =
    Gecko_devices.Catalog.msp430fr5994.Gecko_devices.Device.adc_profile
  in
  let attack =
    Gecko_emi.Attack.remote ~distance_m:1.0
      (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:30.)
  in
  Test.make ~name:"emi induced_amplitude"
    (Staged.stage (fun () ->
         ignore (Gecko_emi.Attack.induced_amplitude ~profile attack)))

let bench_capacitor =
  Test.make ~name:"capacitor drain+charge x100"
    (Staged.stage (fun () ->
         let c =
           Gecko_energy.Capacitor.create ~capacitance:1e-3 ~v_max:3.3
             ~v_init:3.0
         in
         for _ = 1 to 100 do
           ignore (Gecko_energy.Capacitor.drain c 1e-9);
           Gecko_energy.Capacitor.source_current c ~amps:1e-3 ~dt:1e-6
         done))

let micro_benchmarks () =
  banner "Bechamel micro-benchmarks (ns per run)";
  let tests =
    Test.make_grouped ~name:"gecko"
      [
        bench_compile Core.Scheme.Nvp;
        bench_compile Core.Scheme.Ratchet;
        bench_compile Core.Scheme.Gecko;
        bench_compile_cached;
        bench_simulate Core.Scheme.Nvp;
        bench_simulate Core.Scheme.Gecko;
        bench_amplitude;
        bench_capacitor;
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ v ] -> v
        | Some _ | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
  in
  List.iter
    (fun (name, ns) ->
      (* Bechamel's OLS fit degenerates to nan when the quota is too
         tight for a stable estimate; don't print a misleading number. *)
      if Float.is_nan ns then Printf.printf "%-40s %14s\n" name "n/a"
      else Printf.printf "%-40s %14.0f ns/run\n" name ns)
    rows;
  rows

(* Single-run interpreter throughput: simulated instructions retired per
   wall-clock second on a long uninterrupted crc32 run.  The GECKO
   number is the headline for interpreter-level optimizations,
   independent of the experiment pool; NVP and Ratchet ride along so a
   dispatch change that helps one scheme's instruction mix but hurts
   another's is visible. *)
let sim_instr_per_sec scheme =
  let image, meta =
    let p, meta = Core.Pipeline.compile scheme (Lazy.force crc32_prog) in
    (Link.link p, meta)
  in
  let board = Gecko_machine.Board.default () in
  let opts =
    {
      Gecko_machine.Machine.default_options with
      limit = Gecko_machine.Machine.Sim_time 2.0;
      restart_on_halt = true;
      max_sim_time = 3.0;
    }
  in
  (* Best of three identical runs: the run is deterministic, so the
     spread is pure host noise (scheduler, thermal throttle) and the
     fastest run is the least-perturbed measurement. *)
  let once () =
    let t0 = now () in
    let o = Gecko_machine.Machine.run ~board ~image ~meta opts in
    let wall = now () -. t0 in
    float_of_int o.Gecko_machine.Machine.instructions /. Float.max wall 1e-9
  in
  let r1 = once () in
  let r2 = once () in
  let r3 = once () in
  Float.max r1 (Float.max r2 r3)

(* Dispatch-layer profile: one-time decode cost, how much of the decoded
   stream the superinstruction fuser covered, and the resulting
   interpreter rate, per workload (all under GECKO, the scheme with the
   busiest instruction stream). *)
let dispatch_bench () =
  let workloads =
    match fidelity with
    | E.Quick -> [ "crc32"; "fir"; "qsort" ]
    | E.Full -> List.map (fun w -> w.W.name) W.all
  in
  let board = Gecko_machine.Board.default () in
  let device = board.Gecko_machine.Board.device in
  let t0 = now () in
  let rows =
    List.map
      (fun name ->
        let image, meta, dec =
          Gecko_harness.Workbench.decoded Core.Scheme.Gecko
            ((W.find name).W.build ())
            ~board
        in
        (* Decode is a one-time pass; average a small batch so the
           figure is stable at microsecond scale. *)
        let reps = 100 in
        let d0 = now () in
        for _ = 1 to reps do
          ignore (Gecko_machine.Decode.decode ~device image)
        done;
        let decode_ns = (now () -. d0) *. 1e9 /. float_of_int reps in
        let opts =
          {
            Gecko_machine.Machine.default_options with
            limit = Gecko_machine.Machine.Sim_time 0.5;
            restart_on_halt = true;
            max_sim_time = 1.0;
            decoded = Some dec;
          }
        in
        let r0 = now () in
        let o = Gecko_machine.Machine.run ~board ~image ~meta opts in
        let wall = now () -. r0 in
        let ips =
          float_of_int o.Gecko_machine.Machine.instructions
          /. Float.max wall 1e-9
        in
        (name, decode_ns, Gecko_machine.Decode.fused_share dec, ips))
      workloads
  in
  let wall = now () -. t0 in
  Printf.printf "%-14s %14s %12s %14s\n" "workload" "decode ns" "fused share"
    "sim instr/s";
  List.iter
    (fun (name, decode_ns, share, ips) ->
      Printf.printf "%-14s %14.0f %11.0f%% %14.3e\n" name decode_ns
        (100. *. share) ips)
    rows;
  List.concat_map
    (fun (name, decode_ns, share, ips) ->
      [
        (name ^ "_decode_ns", decode_ns);
        (name ^ "_fused_share", share);
        (name ^ "_instr_per_sec", ips);
      ])
    rows
  @ [ ("wall_seconds", wall) ]

(* Fleet campaign throughput: devices simulated per wall second (and the
   aggregate simulated-instruction rate) on a fixed-seed campaign over
   the shared Workbench pool.  The device count stays fixed so the
   "fleet" artifact is comparable across revisions. *)
let fleet_bench () =
  let devices = match fidelity with E.Quick -> 256 | E.Full -> 512 in
  let spec = Gecko_fleet.Spec.make ~devices ~attackers:2 ~seed:1 () in
  let t0 = now () in
  (* Flight recorders on for every device (telemetry armed, no stream
     file): the headline throughput includes the observability tax. *)
  let r =
    Gecko_fleet.Campaign.run ~telemetry:Gecko_fleet.Telemetry.default_config
      spec
  in
  let wall = now () -. t0 in
  (* Instructions the host interpreted: shared prefixes once, not once
     per device. *)
  let instr = float_of_int r.Gecko_fleet.Campaign.stepped_instructions in
  let prefix_share = Gecko_fleet.Campaign.prefix_share r in
  let devices_per_sec = float_of_int devices /. Float.max wall 1e-9 in
  let sim_instr_per_sec = instr /. Float.max wall 1e-9 in
  Printf.printf
    "%d devices in %.2f s wall: %.1f devices/s, %.3e sim instr/s (%.1f%% of \
     device instructions served from shared prefixes)\n"
    devices wall devices_per_sec sim_instr_per_sec (100. *. prefix_share);
  print_newline ();
  (match r.Gecko_fleet.Campaign.report with
  | Some rep -> print_string (Gecko_fleet.Report.render rep)
  | None -> ());
  [
    ("devices", float_of_int devices);
    ("devices_per_sec", devices_per_sec);
    ("sim_instr_per_sec", sim_instr_per_sec);
    ("prefix_share", prefix_share);
    ("wall_seconds", wall);
  ]

let results_json ~experiments ~micro ~instr_per_sec ~wall_total =
  let metric_obj ms =
    Json.Assoc
      (List.map
         (fun (k, v) ->
           (k, if Float.is_nan v then Json.Null else Json.Float v))
         ms)
  in
  Json.Assoc
    [
      ("schema", Json.String "gecko-bench-v1");
      ( "fidelity",
        Json.String (match fidelity with E.Quick -> "quick" | E.Full -> "full")
      );
      ("jobs", Json.Int (Gecko_harness.Workbench.jobs ()));
      ("wall_seconds_total", Json.Float wall_total);
      ("sim_instr_per_sec", Json.Float instr_per_sec);
      ( "experiments",
        Json.Assoc (List.map (fun (n, ms) -> (n, metric_obj ms)) experiments)
      );
      ("microbench_ns", metric_obj micro);
    ]

let () =
  (match Sys.getenv_opt "GECKO_JOBS" with
  | Some s when int_of_string_opt s = None ->
      Printf.eprintf
        "gecko-bench: unrecognized GECKO_JOBS=%S (expected an integer >= 1)\n%!"
        s
  | Some _ | None -> ());
  Printf.printf
    "GECKO benchmark harness — %s fidelity, %d jobs (set GECKO_BENCH=full \
     for the grids recorded in EXPERIMENTS.md; GECKO_JOBS=N sizes the \
     experiment pool)\n"
    (match fidelity with E.Quick -> "quick" | E.Full -> "full")
    (Gecko_harness.Workbench.jobs ());
  let t0 = now () in
  let experiments = regenerate () in
  let micro = micro_benchmarks () in
  banner "Interpreter throughput";
  let per_scheme =
    List.map
      (fun s ->
        (String.lowercase_ascii (Core.Scheme.to_string s), sim_instr_per_sec s))
      [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko ]
  in
  List.iter
    (fun (n, v) ->
      Printf.printf "simulated instructions per wall second (%s): %.3e\n" n v)
    per_scheme;
  let instr_per_sec =
    match List.rev per_scheme with (_, v) :: _ -> v | [] -> nan
  in
  banner "Dispatch profile";
  let dispatch_metrics =
    dispatch_bench ()
    @ List.map (fun (n, v) -> ("sim_instr_per_sec_" ^ n, v)) per_scheme
  in
  banner "Fleet campaign throughput";
  let fleet_metrics = fleet_bench () in
  let experiments =
    experiments @ [ ("dispatch", dispatch_metrics); ("fleet", fleet_metrics) ]
  in
  let wall_total = now () -. t0 in
  Printf.printf "\ntotal wall time: %.2f s\n" wall_total;
  let out =
    match Sys.getenv_opt "GECKO_BENCH_OUT" with
    | Some p -> p
    | None -> "BENCH_results.json"
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (results_json ~experiments ~micro ~instr_per_sec ~wall_total));
  output_char oc '\n';
  close_out oc;
  Printf.printf "results -> %s\n" out
