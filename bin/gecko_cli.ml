(* The `gecko` command-line tool: compile workloads, inspect the pipeline,
   run intermittent executions, stage EMI attacks and regenerate the
   paper's experiments. *)

open Cmdliner
module Compiler = Gecko.Compiler
module M = Gecko.Machine
module W = Gecko.Workloads

let scheme_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "nvp" -> Ok Compiler.Scheme.Nvp
    | "ratchet" -> Ok Compiler.Scheme.Ratchet
    | "gecko" -> Ok Compiler.Scheme.Gecko
    | "gecko-noprune" | "noprune" -> Ok Compiler.Scheme.Gecko_noprune
    | _ -> Error (`Msg "scheme must be nvp | ratchet | gecko | gecko-noprune")
  in
  let print ppf s = Format.pp_print_string ppf (Compiler.Scheme.to_string s) in
  Arg.conv (parse, print)

let workload_arg =
  let doc = "Benchmark application (see `gecko list`) or a .gasm file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let scheme_arg =
  let doc = "Recovery scheme: nvp, ratchet, gecko, gecko-noprune." in
  Arg.(value & opt scheme_conv Compiler.Scheme.Gecko & info [ "s"; "scheme" ] ~doc)

let find_workload name =
  if Filename.check_suffix name ".gasm" then
    match Gecko.Isa.Asm.parse_file name with
    | Ok p -> p
    | Error e ->
        Printf.eprintf "%s: %s\n" name e;
        exit 1
  else
    try (W.find name).W.build ()
    with Not_found ->
      Printf.eprintf "unknown workload %s; see `gecko list`\n" name;
      exit 1

(* A program the machine cannot run (control left the code, an NVM
   access out of range) is the input's fault, reported like a bad
   .gasm. *)
let fail_program cmd msg =
  Printf.eprintf "gecko %s: %s\n" cmd msg;
  exit 1

(* The [--jobs] option of [fuzz], [fleet] and [experiment]: the size of
   the process's worker pool, set once the arguments parse
   ([Workbench.set_jobs]; unset keeps [GECKO_JOBS] or the runtime's
   recommended domain count). *)
let jobs_term ~doc =
  let set = function
    | Some n when n < 1 ->
        Printf.eprintf "--jobs must be >= 1 (got %d)\n" n;
        exit 1
    | Some n -> Gecko.Workbench.set_jobs n
    | None -> ()
  in
  Term.(
    const set
    $ Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* --- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "workloads:";
    List.iter
      (fun w -> Printf.printf "  %-14s %s\n" w.W.name w.W.description)
      W.all;
    print_endline "\ndevices:";
    List.iter
      (fun d -> Printf.printf "  %s\n" d.Gecko.Devices.Device.model)
      Gecko.Devices.Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and devices")
    Term.(const run $ const ())

(* --- shared observability helpers ------------------------------------- *)

let write_file path contents =
  match open_out path with
  | oc ->
      output_string oc contents;
      close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "gecko: cannot write %s: %s\n" path msg;
      exit 1

(* File extension picks the trace flavour: .jsonl streams line-delimited
   records, anything else gets the Chrome trace-event array (Perfetto /
   chrome://tracing). *)
let write_trace path tracer =
  let contents =
    if Filename.check_suffix path ".jsonl" then Gecko.Obs.Trace.to_jsonl tracer
    else Gecko.Obs.Trace.to_chrome_string tracer
  in
  write_file path contents;
  Printf.printf "trace: %d events -> %s%s\n"
    (Gecko.Obs.Trace.length tracer)
    path
    (let d = Gecko.Obs.Trace.dropped tracer in
     if d > 0 then Printf.sprintf " (%d oldest dropped)" d else "")

(* The one metrics writer, for [run] and [replay] alike: the extension
   picks the format. *)
let metrics_doc =
  "Dump run metrics (counters, gauges, latency histograms) as JSON; a \
   .csv extension selects CSV and a .prom extension Prometheus text \
   exposition."

let write_metrics path registry =
  let contents =
    if Filename.check_suffix path ".csv" then Gecko.Obs.Metrics.to_csv registry
    else if Filename.check_suffix path ".prom" then
      Gecko.Obs.Metrics.to_prometheus registry
    else Gecko.Obs.Json.to_string (Gecko.Obs.Metrics.to_json registry)
  in
  write_file path contents;
  Printf.printf "metrics -> %s\n" path

(* --- compile ---------------------------------------------------------- *)

let compile_cmd =
  let disasm =
    Arg.(value & flag & info [ "d"; "disasm" ] ~doc:"Print the linked image.")
  in
  let asm =
    Arg.(
      value & flag
      & info [ "asm" ]
          ~doc:
            "Print the compiled program as .gasm (shows the inserted \
             checkpoint stores and region boundaries).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print per-pass compiler wall time and IR growth.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the compiler profile as a Chrome trace-event JSON file \
             (.jsonl for line-delimited records).")
  in
  let run name scheme disasm asm profile trace_out =
    let registry =
      if profile then Some (Gecko.Obs.Metrics.create ()) else None
    in
    let tracer =
      if trace_out <> None then Some (Gecko.Obs.Trace.create ()) else None
    in
    let p, meta =
      Compiler.Pipeline.compile ?obs:tracer ?metrics:registry scheme
        (find_workload name)
    in
    Format.printf "%s as %s:@.  %a@.  static checkpoint stores: %d@." name
      (Compiler.Scheme.to_string scheme)
      Compiler.Meta.pp_stats meta.Compiler.Meta.stats
      (Compiler.Pipeline.checkpoint_store_count p);
    (match registry with
    | Some reg ->
        let module Mx = Gecko.Obs.Metrics in
        print_endline "  pass                    wall time     IR instrs";
        List.iter
          (fun pass ->
            let h = Mx.histogram reg ("pipeline." ^ pass ^ ".seconds") in
            let g = Mx.gauge reg ("pipeline." ^ pass ^ ".ir_instrs") in
            if Mx.hist_count h > 0 then
              Printf.printf "  %-20s %8.3f ms  %10.0f\n" pass
                (1e3 *. Mx.hist_sum h) (Mx.gauge_value g))
          Compiler.Pipeline.passes;
        let count name = Mx.counter_value (Mx.counter reg name) in
        let rounds = count "pipeline.coloring.rounds" in
        if rounds > 0 then begin
          Printf.printf "  colouring rounds: %d\n" rounds;
          Printf.printf "  reaching-defs fixpoints: %d\n"
            (count "pipeline.reaching.computes");
          Printf.printf "  slices computed: %d, slice-memo hits: %d\n"
            (count "pipeline.prune.sliced")
            (count "pipeline.prune.slice_memo_hits");
          Printf.printf "  span walks: %d, reused: %d\n"
            (count "pipeline.spans.walks")
            (count "pipeline.spans.walks_reused")
        end;
        let searches = count "pipeline.war.searches" in
        if searches > 0 then
          Printf.printf "  WAR hazard searches: %d (%d loads walked)\n" searches
            (count "pipeline.war.loads_walked");
        let keeps = count "pipeline.slot_force_keeps" in
        if keeps > 0 then Printf.printf "  slot force-keeps: %d\n" keeps
    | None -> ());
    (match (tracer, trace_out) with
    | Some tr, Some path -> write_trace path tr
    | _ -> ());
    if asm then print_string (Gecko.Isa.Asm.to_string p);
    if disasm then
      print_string (Gecko.Isa.Link.disasm (Gecko.Isa.Link.link p))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a workload and show pipeline statistics")
    Term.(const run $ workload_arg $ scheme_arg $ disasm $ asm
          $ profile $ trace_out)

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let seconds =
    Arg.(value & opt float 1.0 & info [ "t"; "time" ] ~doc:"Simulated seconds.")
  in
  let attack_mhz =
    Arg.(
      value
      & opt (some float) None
      & info [ "attack" ] ~docv:"MHZ" ~doc:"Transmit an EMI tone at this frequency.")
  in
  let outages =
    Arg.(
      value & flag
      & info [ "outages" ] ~doc:"Power through a 1 Hz outage generator instead of a bench supply.")
  in
  let attack_at =
    Arg.(
      value & opt float 0.
      & info [ "attack-at" ] ~docv:"T"
          ~doc:
            "Delay the attack onset to T simulated seconds (with --attack): \
             the run shows normal JIT checkpointing before the attack and \
             detection/recovery after.")
  in
  let events =
    Arg.(
      value
      & opt (some int) None
      & info [ "events" ] ~docv:"N"
          ~doc:"Print the first N power/runtime events of the run.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a full execution trace (checkpoints, rollbacks, \
             detections, power spans, capacitor voltage) and write it as \
             Chrome trace-event JSON — load the file in Perfetto or \
             chrome://tracing.  A .jsonl extension selects line-delimited \
             records instead.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:metrics_doc)
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Render an ASCII timeline of the run: capacitor voltage and \
             application throughput over simulated time.")
  in
  let no_fast =
    Arg.(
      value & flag
      & info [ "no-fast" ]
          ~doc:
            "Disable whole-block dispatch: step one decoded instruction \
             per turn with every per-instruction check.  Outcomes are \
             identical either way; this exists for debugging and A/B \
             timing.")
  in
  let run name scheme seconds attack_mhz attack_at outages events trace_out
      metrics_out timeline no_fast =
    let p, meta = Compiler.Pipeline.compile scheme (find_workload name) in
    let image = Gecko.Isa.Link.link p in
    let board =
      if outages then
        {
          (Gecko.Board.attack_rig ()) with
          Gecko.Board.harvester =
            Gecko.Energy.Harvester.square_wave ~period:1.0 ~duty:0.5
              (Gecko.Energy.Harvester.thevenin ~v_source:3.3 ~r_source:150.);
        }
      else Gecko.Board.attack_rig ()
    in
    let schedule =
      match attack_mhz with
      | Some f ->
          let attack =
            Gecko.Emi.Attack.remote ~distance_m:0.1
              (Gecko.Emi.Signal.make ~freq_mhz:f ~power_dbm:20.)
          in
          if attack_at <= 0. then Gecko.Emi.Schedule.always attack
          else
            Gecko.Emi.Schedule.make
              [
                Gecko.Emi.Schedule.window ~t_start:attack_at
                  ~t_end:(seconds +. 1.) attack;
              ]
      | None -> Gecko.Emi.Schedule.empty
    in
    let tracer =
      if trace_out <> None || timeline then Some (Gecko.Obs.Trace.create ())
      else None
    in
    let registry =
      if metrics_out <> None then Some (Gecko.Obs.Metrics.create ()) else None
    in
    let o =
      try
        M.run ~board ~image ~meta
          {
            M.default_options with
            schedule;
            limit = M.Sim_time seconds;
            restart_on_halt = true;
            record_events = events <> None;
            max_sim_time = seconds +. 1.;
            trace = tracer;
            metrics = registry;
            timeline_bucket =
              (if timeline then Some (seconds /. 60.) else None);
            fast = not no_fast;
          }
      with Invalid_argument msg -> fail_program "run" msg
    in
    (match events with
    | Some n ->
        List.iteri
          (fun i e -> if i < n then Format.printf "%a@." M.pp_event e)
          o.M.events
    | None -> ());
    (match (tracer, trace_out) with
    | Some tr, Some path -> write_trace path tr
    | _ -> ());
    (match (registry, metrics_out) with
    | Some reg, Some path -> write_metrics path reg
    | _ -> ());
    (if timeline then
       match tracer with
       | None -> ()
       | Some tr ->
           let volts =
             List.filter_map
               (fun (e : Gecko.Obs.Trace.entry) ->
                 match e.Gecko.Obs.Trace.ph with
                 | Gecko.Obs.Trace.Counter v
                   when e.Gecko.Obs.Trace.name = "cap_voltage" ->
                     Some (e.Gecko.Obs.Trace.ts, v)
                 | _ -> None)
               (Gecko.Obs.Trace.entries tr)
           in
           if volts <> [] then
             print_string
               (Gecko.Util.Chart.line_plot ~height:10 ~y_min:0.
                  ~title:"capacitor voltage" ~x_label:"time (s)" ~y_label:"V"
                  [ { Gecko.Util.Chart.label = "V(cap)"; points = volts } ]);
           (match o.M.timeline with
           | Some tl ->
               let pts =
                 Array.to_list
                   (Array.mapi
                      (fun i v ->
                        (float_of_int i *. tl.M.bucket, v /. tl.M.bucket))
                      tl.M.app_seconds_per_bucket)
                 |> List.filter (fun (t, _) -> t <= seconds)
               in
               print_string
                 (Gecko.Util.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
                    ~title:"application forward progress" ~x_label:"time (s)"
                    ~y_label:"R"
                    [ { Gecko.Util.Chart.label = "app"; points = pts } ])
           | None -> ());
           let tally = Hashtbl.create 16 in
           List.iter
             (fun (e : Gecko.Obs.Trace.entry) ->
               match e.Gecko.Obs.Trace.ph with
               | Gecko.Obs.Trace.Instant ->
                   let n = e.Gecko.Obs.Trace.name in
                   Hashtbl.replace tally n
                     (1 + Option.value ~default:0 (Hashtbl.find_opt tally n))
               | _ -> ())
             (Gecko.Obs.Trace.entries tr);
           let rows =
             Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
             |> List.sort (fun (a, _) (b, _) -> String.compare a b)
           in
           if rows <> [] then begin
             print_endline "events:";
             List.iter
               (fun (k, v) -> Printf.printf "  %-22s %6d\n" k v)
               rows
           end);
    Printf.printf
      "%s as %s for %.2fs:\n  completions %d | reboots %d | JIT checkpoints %d \
       (%d failed) | rollbacks %d\n  recovery blocks run %d | detections %d | \
       re-enables %d | corrupt resumes %d\n  forward-progress rate %.2f%% | \
       final mode %s\n"
      name
      (Compiler.Scheme.to_string scheme)
      o.M.sim_time o.M.completions o.M.reboots o.M.jit_checkpoints
      o.M.jit_checkpoint_failures o.M.rollbacks o.M.recovery_block_runs
      o.M.detections o.M.reenables o.M.corruptions
      (100. *. M.forward_progress o)
      (Compiler.Policy.mode_to_string o.M.final_mode)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a workload on the simulated intermittent system")
    Term.(
      const run $ workload_arg $ scheme_arg $ seconds $ attack_mhz
      $ attack_at $ outages $ events $ trace_out $ metrics_out $ timeline
      $ no_fast)

(* --- fuzz ------------------------------------------------------------- *)

let fuzz_cmd =
  let module FI = Gecko.Faultinject in
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total simulator-run budget: single-failure injection replays \
             plus (a quarter of N) adversarial-schedule evaluations.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let pairs =
    Arg.(
      value & opt int 0
      & info [ "pairs" ] ~docv:"K"
          ~doc:"Additional double-failure (k=2) replays at random site pairs.")
  in
  let jobs =
    jobs_term
      ~doc:
        "Replay pool size.  Defaults to $(b,GECKO_JOBS) or the runtime's \
         recommended domain count; 1 runs fully serial."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSON report here (default: stdout).")
  in
  let run name scheme budget seed pairs () out =
    if budget < 1 then begin
      Printf.eprintf "--budget must be >= 1 (got %d)\n" budget;
      exit 1
    end;
    let jobs = Gecko.Workbench.jobs () in
    let p, meta = Compiler.Pipeline.compile scheme (find_workload name) in
    let image = Gecko.Isa.Link.link p in
    (* Exploration and fuzzing both want natural checkpoint/rollback
       traffic within a short workload, so starve a micro-cap board
       through a weak supply: the capacitor browns out every few hundred
       instructions, which makes every protocol path (backup signal, JIT
       checkpoint ISR, restore/rollback) part of the census. *)
    let board =
      {
        (Gecko.Board.default
           ~harvester:
             (Gecko.Energy.Harvester.thevenin ~v_source:3.3 ~r_source:2000.)
           ())
        with
        Gecko.Board.capacitance = 0.6e-6;
        v_backup = 2.8;
      }
    in
    let explore, fuzz =
      try
        ( FI.Explore.explore ~jobs ~budget ~pairs ~seed ~board ~image ~meta (),
          FI.Fuzz.fuzz ~jobs
            ~budget:(max 8 (budget / 4))
            ~seed ~board ~image ~meta () )
      with Invalid_argument msg -> fail_program "fuzz" msg
    in
    (* Shrink a handful of counterexamples into replayable repro triples.
       The repro program is the already-compiled one, so shrinking
       re-links without re-running the pipeline. *)
    (* A tight simulated-time cap keeps shrinking fast: candidate
       programs whose deletions destroyed termination would otherwise
       burn the full 30 s safety cap per replay. *)
    let shrink_check board =
      FI.Shrink.default_check
        ~compile:(fun prog -> (Gecko.Isa.Link.link prog, meta))
        ~board
        ~opts:{ FI.Explore.default_opts with Gecko.Machine.max_sim_time = 1.0 }
        ()
    in
    let cap n xs = List.filteri (fun i _ -> i < n) xs in
    let repros =
      List.map
        (fun (f : FI.Explore.failure) ->
          FI.Shrink.shrink ~check:(shrink_check board)
            {
              FI.Shrink.r_prog = p;
              r_schedule = Gecko.Emi.Schedule.empty;
              r_fires = f.FI.Explore.f_fires;
            })
        (cap 2 explore.FI.Explore.failures)
      @ List.map
          (fun (f : FI.Fuzz.failure) ->
            FI.Shrink.shrink ~check:(shrink_check board)
              {
                FI.Shrink.r_prog = p;
                r_schedule = f.FI.Fuzz.f_schedule;
                r_fires = [];
              })
          (cap 1 fuzz.FI.Fuzz.failures)
    in
    let report =
      FI.Report.make ~workload:name
        ~scheme:(Compiler.Scheme.to_string scheme)
        ~seed ~budget ~explore ~fuzz ~repros
    in
    let contents = Gecko.Obs.Json.to_string report in
    (match out with
    | Some path ->
        write_file path contents;
        Printf.printf "report -> %s\n" path
    | None -> print_endline contents);
    let total =
      FI.Report.failures_total ~explore ~fuzz
    in
    Printf.printf
      "%s as %s: %d sites (%d explored + %d pairs), fuzz best score %.0f\n\
       injection failures %d | schedule failures %d | shrunk repros %d\n"
      name
      (Compiler.Scheme.to_string scheme)
      explore.FI.Explore.sites_total explore.FI.Explore.explored
      explore.FI.Explore.explored_pairs fuzz.FI.Fuzz.best_score
      (List.length explore.FI.Explore.failures)
      (List.length fuzz.FI.Fuzz.failures)
      (List.length repros);
    if total > 0 then begin
      List.iter
        (fun r -> print_string (FI.Shrink.to_ocaml r))
        (cap 1 repros);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Exhaustive single-failure injection plus adversarial EMI-schedule \
          fuzzing against the crash-consistency oracle")
    Term.(const run $ workload_arg $ scheme_arg $ budget $ seed
          $ pairs $ jobs $ out)

(* --- fleet ------------------------------------------------------------ *)

let fleet_cmd =
  let module F = Gecko.Fleet in
  let devices =
    Arg.(
      value & opt int 256
      & info [ "devices" ] ~docv:"N" ~doc:"Fleet size (number of devices).")
  in
  let attackers =
    Arg.(
      value & opt int 1
      & info [ "attackers" ] ~docv:"K"
          ~doc:"Mobile attackers sweeping the deployment (0 = no attack).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed.")
  in
  let jobs =
    jobs_term
      ~doc:
        "Shard pool size.  Defaults to $(b,GECKO_JOBS) or the runtime's \
         recommended domain count; the merged report is byte-identical at \
         any value."
  in
  let duration =
    Arg.(
      value & opt float 0.05
      & info [ "duration" ] ~docv:"T" ~doc:"Simulated seconds per device.")
  in
  let area =
    Arg.(
      value & opt float 30.
      & info [ "area" ] ~docv:"M" ~doc:"Side of the square deployment (m).")
  in
  let shard_size =
    Arg.(
      value & opt int 32
      & info [ "shard-size" ] ~docv:"N" ~doc:"Devices per work unit.")
  in
  let workloads =
    Arg.(
      value
      & opt (list string) [ "crc16"; "crc32"; "bitcnt"; "fir" ]
      & info [ "workloads" ] ~docv:"W,.."
          ~doc:"Workload mix, drawn per device from its RNG stream.")
  in
  let schemes =
    Arg.(
      value
      & opt (list scheme_conv)
          [ Compiler.Scheme.Nvp; Compiler.Scheme.Ratchet; Compiler.Scheme.Gecko ]
      & info [ "schemes" ] ~docv:"S,.." ~doc:"Recovery-scheme mix.")
  in
  let power =
    Arg.(
      value & opt float 30.
      & info [ "power" ] ~docv:"DBM" ~doc:"Attacker transmit power.")
  in
  let freq =
    Arg.(
      value & opt float 27.
      & info [ "freq" ] ~docv:"MHZ" ~doc:"Attack tone frequency.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the merged JSON report here.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Checkpoint completed shards to this gecko.fleet/1 file after \
             every wave (write-then-rename), so a killed campaign resumes \
             without rework.  Defaults to the $(b,--resume) file when \
             resuming.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a gecko.fleet/1 snapshot: completed shards are \
             reused, only the missing ones run, and the merged report is \
             byte-identical to an uninterrupted campaign.")
  in
  let max_shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-shards" ] ~docv:"N"
          ~doc:
            "Stop after N newly-run shards (controlled interruption; \
             combine with $(b,--snapshot) and finish later with \
             $(b,--resume)).")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Stream live campaign telemetry to FILE as \
             gecko.fleet-telemetry/2 JSONL: a header, one record per \
             completed shard with its own and the running aggregate, a \
             final record with the outliers and the campaign total, and \
             one clearly-marked nondeterministic record carrying the \
             wall-clock rates.  Every device carries a flight recorder; \
             the worst $(b,--top-k) devices ride along as outlier records \
             with their flight dumps.  All records except the \
             nondeterministic one are byte-identical at any $(b,--jobs).")
  in
  let top_k =
    Arg.(
      value & opt int 8
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Outlier records kept in the telemetry: the K worst devices \
             by badness score, each with the coordinates `gecko replay` \
             needs.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Force the live stderr progress line (default: on when \
             $(b,--telemetry) is set and stderr is a terminal).")
  in
  let run devices attackers seed () duration area shard_size workloads
      schemes power freq out snapshot resume max_shards telemetry_out top_k
      progress =
    let fail_invalid msg =
      Printf.eprintf "gecko fleet: %s\n" msg;
      exit 1
    in
    let spec =
      try
        F.Spec.make ~devices ~attackers ~seed ~duration ~area_m:area
          ~shard_size ~workload_mix:workloads ~scheme_mix:schemes
          ~power_dbm:power ~freq_mhz:freq ()
      with Invalid_argument msg -> fail_invalid msg
    in
    let resume_state =
      match resume with
      | None -> None
      | Some path -> (
          match F.Campaign.load_snapshot path with
          | state -> Some state
          | exception Sys_error msg -> fail_invalid msg
          | exception Invalid_argument msg -> fail_invalid msg)
    in
    let snapshot_path =
      match (snapshot, resume) with Some p, _ -> Some p | None, r -> r
    in
    if top_k < 0 then fail_invalid "--top-k must be >= 0";
    let telemetry =
      match (telemetry_out, progress) with
      | None, false -> None
      | path, forced ->
          Some
            {
              F.Telemetry.tel_path = path;
              tel_top_k = top_k;
              tel_progress =
                forced || (path <> None && Unix.isatty Unix.stderr);
            }
    in
    let hits0, misses0 = Gecko.Workbench.cache_counts () in
    let t0 = Gecko.Util.Clock.now () in
    let r =
      try
        F.Campaign.run ?snapshot_path ?resume:resume_state ?max_shards
          ?telemetry spec
      with Invalid_argument msg -> fail_invalid msg
    in
    let wall = Gecko.Util.Clock.elapsed t0 in
    let hits1, misses1 = Gecko.Workbench.cache_counts () in
    (match r.F.Campaign.report with
    | Some report ->
        print_string (F.Report.render report);
        (match out with
        | Some path ->
            write_file path
              (Gecko.Obs.Json.to_string (F.Report.to_json report) ^ "\n");
            Printf.printf "report -> %s\n" path
        | None -> ())
    | None ->
        Printf.printf
          "campaign interrupted: %d/%d shards complete%s\n"
          r.F.Campaign.completed_shards r.F.Campaign.total_shards
          (match snapshot_path with
          | Some p -> Printf.sprintf " (resume with --resume %s)" p
          | None -> ""));
    (match r.F.Campaign.telemetry with
    | Some t when t.F.Telemetry.outliers <> [] ->
        Printf.printf "top outliers (badness score; drill down with `gecko \
                       replay`):\n";
        List.iter
          (fun (o : F.Telemetry.outlier) ->
            Printf.printf
              "  device %4d  score %10.1f  %s/%s  corruptions %d | \
               ckpt failures %d | brownouts %d\n"
              o.F.Telemetry.o_device o.F.Telemetry.o_score
              o.F.Telemetry.o_workload o.F.Telemetry.o_scheme
              o.F.Telemetry.o_corruptions o.F.Telemetry.o_ckpt_failures
              o.F.Telemetry.o_brownouts)
          t.F.Telemetry.outliers
    | _ -> ());
    (match telemetry_out with
    | Some p -> Printf.printf "telemetry -> %s\n" p
    | None -> ());
    (* "sim instr/s" counts what the host interpreted: each shared
       prefix once plus every device's tail.  The devices' own total
       counts those prefixes once per device. *)
    let stepped = r.F.Campaign.stepped_instructions
    and device_instr = r.F.Campaign.instructions_run in
    Printf.printf
      "%d devices in %.2f s wall (%d resumed shards): %.1f devices/s, \
       %.3e sim instr/s | %d instructions stepped, %d retired by devices \
       (%.1f%% served from shared prefixes) | compile cache %d hits / %d \
       misses\n"
      r.F.Campaign.devices_run wall r.F.Campaign.resumed_shards
      (float_of_int r.F.Campaign.devices_run /. Float.max wall 1e-9)
      (float_of_int stepped /. Float.max wall 1e-9)
      stepped device_instr
      (100. *. F.Campaign.prefix_share r)
      (hits1 - hits0) (misses1 - misses0)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a campaign of many intermittent devices under mobile EMI \
          attackers sweeping a shared deployment")
    Term.(
      const run $ devices $ attackers $ seed $ jobs $ duration $ area
      $ shard_size $ workloads $ schemes $ power $ freq $ out $ snapshot
      $ resume $ max_shards $ telemetry_out $ top_k $ progress)

(* --- replay ------------------------------------------------------------ *)

(* Drill down from a fleet-wide anomaly to a single-device repro: given
   the campaign spec (bare, or embedded in a fleet report, snapshot or
   telemetry stream), re-elaborate one device and re-run it with the
   full forensics kit attached.  When the input is a telemetry stream,
   the replayed outlier record is checked byte-for-byte against the
   recorded one. *)
let replay_cmd =
  let module F = Gecko.Fleet in
  let module Json = Gecko.Obs.Json in
  let campaign =
    Arg.(
      required
      & opt (some string) None
      & info [ "campaign" ] ~docv:"FILE"
          ~doc:
            "The campaign to replay from: a bare fleet spec JSON, a \
             gecko.fleet-report/1 report, a gecko.fleet/1 snapshot, or a \
             gecko.fleet-telemetry/2 JSONL stream.  A stream also supplies \
             the recorded outlier records to verify against.")
  in
  let device =
    Arg.(
      value
      & opt (some int) None
      & info [ "device" ] ~docv:"ID"
          ~doc:
            "Device id to replay.  Defaults to the top outlier when \
             $(b,--campaign) is a telemetry stream.")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:"Write the replayed flight-recorder dump (gecko.flight/1).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the full execution trace as Chrome trace-event JSON \
             (.jsonl for line-delimited records).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:metrics_doc)
  in
  let events =
    Arg.(
      value
      & opt (some int) None
      & info [ "events" ] ~docv:"N"
          ~doc:"Print the last N flight-recorder events.")
  in
  let run campaign device flight_out trace_out metrics_out events =
    let fail_invalid msg =
      Printf.eprintf "gecko replay: %s\n" msg;
      exit 1
    in
    let contents =
      match In_channel.with_open_bin campaign In_channel.input_all with
      | s -> s
      | exception Sys_error msg -> fail_invalid msg
    in
    (* The campaign file can be a single JSON document (bare spec,
       report, snapshot) or a telemetry JSONL stream; a stream's first
       line is its header. *)
    let spec, recorded_final =
      let parse_doc j =
        match Option.bind (Json.member "schema" j) Json.to_string_opt with
        | Some s
          when s = F.Report.schema || s = F.Campaign.snapshot_schema
               || s = F.Telemetry.stream_schema -> (
            match Json.member "spec" j with
            | Some sj -> F.Spec.of_json sj
            | None -> fail_invalid "campaign file has no spec member")
        | Some s -> fail_invalid (Printf.sprintf "unknown schema %S" s)
        | None -> F.Spec.of_json j
      in
      match Json.parse contents with
      | Ok j -> (
          try (parse_doc j, None) with Invalid_argument m -> fail_invalid m)
      | Error _ -> (
          (* JSONL: parse line by line; find the header and the final
             record. *)
          let lines =
            String.split_on_char '\n' contents
            |> List.filter (fun l -> String.trim l <> "")
            |> List.filter_map (fun l ->
                   match Json.parse l with Ok j -> Some j | Error _ -> None)
          in
          match lines with
          | [] -> fail_invalid "campaign file is neither JSON nor JSONL"
          | header :: rest -> (
              try
                let spec = parse_doc header in
                let final =
                  List.find_map
                    (fun j ->
                      Option.map F.Telemetry.of_json (Json.member "final" j))
                    rest
                in
                (spec, final)
              with Invalid_argument m -> fail_invalid m))
    in
    let device_id =
      match (device, recorded_final) with
      | Some id, _ -> id
      | None, Some t -> (
          match t.F.Telemetry.outliers with
          | o :: _ -> o.F.Telemetry.o_device
          | [] ->
              fail_invalid
                "no outliers in the telemetry stream; give --device")
      | None, None -> fail_invalid "give --device (no telemetry outliers)"
    in
    let rp =
      try F.Campaign.replay ~device_id spec
      with Invalid_argument m -> fail_invalid m
    in
    let d = rp.F.Campaign.rp_device in
    let o = rp.F.Campaign.rp_outcome in
    Printf.printf
      "device %d: %s as %s on %s at (%.1f, %.1f) m, seed %d\n\
      \  completions %d | reboots %d | JIT checkpoints %d (%d failed) | \
       rollbacks %d\n\
      \  brownouts %d | detections %d | corrupt resumes %d | final mode %s\n"
      d.F.Campaign.id d.F.Campaign.workload
      (Compiler.Scheme.to_string d.F.Campaign.scheme)
      (F.Spec.board_slug d.F.Campaign.board)
      d.F.Campaign.x d.F.Campaign.y d.F.Campaign.seed o.M.completions
      o.M.reboots o.M.jit_checkpoints o.M.jit_checkpoint_failures
      o.M.rollbacks o.M.brownouts o.M.detections o.M.corruptions
      (Compiler.Policy.mode_to_string o.M.final_mode);
    let fl = rp.F.Campaign.rp_flight in
    Printf.printf "flight: %d of last %d events recorded (%d older dropped)\n"
      (Gecko.Obs.Flight.length fl)
      (Gecko.Obs.Flight.capacity fl)
      (Gecko.Obs.Flight.dropped fl);
    (match events with
    | Some n ->
        let entries = Gecko.Obs.Flight.entries fl in
        let skip = max 0 (List.length entries - n) in
        List.iteri
          (fun i (e : Gecko.Obs.Flight.entry) ->
            if i >= skip then
              Printf.printf "  %.6f s  %-18s arg %-6d  %.3f V\n"
                e.Gecko.Obs.Flight.e_t e.Gecko.Obs.Flight.e_ev
                e.Gecko.Obs.Flight.e_arg e.Gecko.Obs.Flight.e_v)
          entries
    | None -> ());
    (match flight_out with
    | Some path ->
        write_file path (Gecko.Obs.Flight.to_string fl ^ "\n");
        Printf.printf "flight dump -> %s\n" path
    | None -> ());
    (match trace_out with
    | Some path -> write_trace path rp.F.Campaign.rp_trace
    | None -> ());
    (match metrics_out with
    | Some path -> write_metrics path rp.F.Campaign.rp_metrics
    | None -> ());
    (* Verify the replayed contribution against the campaign's recorded
       outlier record, when we have one. *)
    match recorded_final with
    | None -> ()
    | Some t -> (
        let outlier_json tel id =
          List.find_opt
            (fun (o : F.Telemetry.outlier) -> o.F.Telemetry.o_device = id)
            tel.F.Telemetry.outliers
        in
        match outlier_json t device_id with
        | None ->
            Printf.printf
              "device %d is not among the stream's top-%d outliers; nothing \
               recorded to verify against\n"
              device_id t.F.Telemetry.top_k
        | Some recorded -> (
            match outlier_json rp.F.Campaign.rp_telemetry device_id with
            | None ->
                Printf.eprintf
                  "MISMATCH: replay of device %d produced no outlier record \
                   but the campaign recorded one\n"
                  device_id;
                exit 1
            | Some replayed ->
                let js o =
                  (* Compare through the persisted form: exactly what the
                     stream carried. *)
                  Json.to_string
                    (F.Telemetry.to_json
                       {
                         (F.Telemetry.empty ~top_k:1) with
                         F.Telemetry.outliers = [ o ];
                       })
                in
                if js recorded = js replayed then
                  Printf.printf
                    "replay matches the campaign's recorded outlier record \
                     (score %.1f)\n"
                    recorded.F.Telemetry.o_score
                else begin
                  Printf.eprintf
                    "MISMATCH: replayed outlier record differs from the \
                     campaign's:\n  recorded: %s\n  replayed: %s\n"
                    (js recorded) (js replayed);
                  exit 1
                end))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-run one device of a fleet campaign with \
          trace, metrics and flight recorder attached")
    Term.(
      const run $ campaign $ device $ flight_out $ trace_out $ metrics_out
      $ events)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let names = List.map fst Gecko.Experiments.artifacts in
  let which =
    let doc =
      Printf.sprintf "Artifact to regenerate: %s, or 'all'."
        (String.concat ", " names)
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ARTIFACT" ~doc)
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Use the full sweep grids (slow).")
  in
  let jobs =
    jobs_term
      ~doc:
        "Size of the experiment pool (independent simulations per sweep \
         point).  Defaults to $(b,GECKO_JOBS) or the runtime's recommended \
         domain count; 1 runs fully serial."
  in
  let run which full () =
    let fidelity =
      if full then Gecko.Experiments.Full else Gecko.Experiments.Quick
    in
    let selected =
      if which = "all" then Gecko.Experiments.artifacts
      else
        List.filter (fun (n, _) -> n = which) Gecko.Experiments.artifacts
    in
    if selected = [] then begin
      Printf.eprintf "unknown artifact %s\n" which;
      exit 1
    end;
    List.iter
      (fun (n, gen) ->
        let a = gen fidelity in
        Printf.printf "=== %s ===\n%s\n" n a.Gecko.Experiments.text;
        flush stdout)
      selected
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table or figure from the paper's evaluation")
    Term.(const run $ which $ full $ jobs)

let () =
  let info =
    Cmd.info "gecko" ~version:"1.0.0"
      ~doc:
        "EMI attacks on JIT checkpointing and the GECKO defense, on a \
         simulated intermittent system"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; compile_cmd; run_cmd; fuzz_cmd; fleet_cmd; replay_cmd;
            experiment_cmd;
          ]))
