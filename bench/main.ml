(* The benchmark harness regenerates every table and figure of the
   paper's evaluation (Section VII plus the attack studies of Section
   IV).

   Fidelity: `GECKO_BENCH=full` runs the sweep densities recorded in
   EXPERIMENTS.md; the default quick mode uses coarser grids and shorter
   simulated durations (same code paths).

   Besides the ASCII report on stdout, a quick run writes two files (a
   full run only prints, so the committed quick files stay as CI reads
   them):
   - BENCH_results.json: each artifact's headline scalars.  Every one is
     deterministic and identical at any GECKO_JOBS, so the file is a
     pure function of the code and CI diffs it against the committed
     copy.
   - BENCH_timings.json: the wall-clock figures (per-artifact and total
     wall seconds, the pool size and the interpreter's
     sim_instr_per_sec, the one timing a CI floor reads).  Repeated,
     spread-aware timings of the same layers live in bench/perf. *)

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

let fidelity_name = match fidelity with E.Quick -> "quick" | E.Full -> "full"

(* Every wall-clock figure that lands in BENCH_timings.json comes from
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

(* [(name, metrics, wall seconds)] per artifact, in paper order. *)
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
      (name, a.E.metrics, wall))
    E.artifacts

(* Single-run interpreter throughput: simulated instructions retired per
   wall-clock second on a long uninterrupted crc32 run under GECKO,
   independent of the experiment pool.  CI's perf-smoke floor reads
   it. *)
let sim_instr_per_sec () =
  let image, meta =
    let p, meta =
      Core.Pipeline.compile Core.Scheme.Gecko ((W.find "crc32").W.build ())
    in
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

let results_json experiments =
  let metric_obj ms =
    Json.Assoc
      (List.map
         (fun (k, v) ->
           (k, if Float.is_nan v then Json.Null else Json.Float v))
         ms)
  in
  Json.Assoc
    [
      ("schema", Json.String "gecko-bench-v2");
      ("fidelity", Json.String fidelity_name);
      ( "experiments",
        Json.Assoc
          (List.map (fun (n, ms, _) -> (n, metric_obj ms)) experiments) );
    ]

let timings_json experiments ~instr_per_sec ~wall_total =
  Json.Assoc
    [
      ("schema", Json.String "gecko-bench-timings-v1");
      ("fidelity", Json.String fidelity_name);
      ("jobs", Json.Int (Gecko_harness.Workbench.jobs ()));
      ("wall_seconds_total", Json.Float wall_total);
      ("sim_instr_per_sec", Json.Float instr_per_sec);
      ( "wall_seconds",
        Json.Assoc
          (List.map (fun (n, _, wall) -> (n, Json.Float wall)) experiments) );
    ]

(* One key per line, so a moved number is one line of `git diff`. *)
let rec layout buf indent = function
  | Json.Assoc (_ :: _ as kvs) ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Json.to_buffer buf (Json.String k);
          Buffer.add_string buf ": ";
          layout buf (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'
  | v -> Json.to_buffer buf v

let write label path json =
  let buf = Buffer.create 4096 in
  layout buf 0 json;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "%s -> %s\n" label path

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
    fidelity_name
    (Gecko_harness.Workbench.jobs ());
  let t0 = now () in
  let experiments = regenerate () in
  banner "Interpreter throughput";
  let instr_per_sec = sim_instr_per_sec () in
  Printf.printf "simulated instructions per wall second (gecko): %.3e\n"
    instr_per_sec;
  let wall_total = now () -. t0 in
  Printf.printf "\ntotal wall time: %.2f s\n" wall_total;
  match fidelity with
  | E.Quick ->
      write "results" "BENCH_results.json" (results_json experiments);
      write "timings" "BENCH_timings.json"
        (timings_json experiments ~instr_per_sec ~wall_total)
  | E.Full -> ()
