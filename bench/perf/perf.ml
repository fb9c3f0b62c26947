(* The repository benchmark.  Four workloads, each driving one layer of
   the stack hard through its public functions; every timing happens
   here, outside the libraries, on the monotonic clock.  README.md gives
   the workloads, the metrics and the predictions that tie them
   together.

     perf.exe run <workload> [--seed N] [--seconds S] [--trace FILE] [--smoke]
     perf.exe repeat <workload> [--runs N] [--seed N] [--seconds S] [--smoke]
     perf.exe smoke BENCHMARK.json *)

module Core = Gecko_core
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Decode = Gecko_machine.Decode
module Workbench = Gecko_harness.Workbench
module Workload = Gecko_workloads.Workload
module Spec = Gecko_fleet.Spec
module Campaign = Gecko_fleet.Campaign
module Report = Gecko_fleet.Report
module Agg = Gecko_fleet.Agg
module Telemetry = Gecko_fleet.Telemetry
module Explore = Gecko_faultinject.Explore
module Inject = Gecko_faultinject.Inject
module Trace = Gecko_obs.Trace
module Metrics = Gecko_obs.Metrics
module Json = Gecko_obs.Json
module Rng = Gecko_util.Rng
module Stats = Gecko_util.Stats
module Link = Gecko_isa.Link

let () =
  Gecko_util.Clock.set_source (fun () ->
      Int64.to_float (Monotonic_clock.now ()) /. 1e9)

let now = Gecko_util.Clock.now

(* ------------------------------------------------------------------ *)
(* Metric tables — BENCHMARK.json lists the same names and units, and  *)
(* `perf.exe smoke` fails when the two drift apart.                    *)
(* ------------------------------------------------------------------ *)

(* (name, unit, better, bound): printed by every untraced run. *)
let end_to_end =
  [
    ("setup_s", "s", "lower", 0.25);
    ("items_per_sec", "1/s", "higher", 0.25);
    ("op_ms_p50", "ms", "lower", 0.25);
    ("op_ms_p90", "ms", "lower", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.25);
  ]

(* (name, unit, better): printed by every traced run.  A layer the
   workload does not exercise reads 0 — the prediction there is "no
   change". *)
let per_layer =
  [
    ("core.copy_s", "s", "lower");
    ("core.regions_s", "s", "lower");
    ("core.split_s", "s", "lower");
    ("core.regions2_s", "s", "lower");
    ("core.coloring_s", "s", "lower");
    ("core.emit_s", "s", "lower");
    ("core.guards_s", "s", "lower");
    ("core.verify_s", "s", "lower");
    ("core.compile_ms_p99", "ms", "lower");
    ("core.static_ckpt_stores", "count", "lower");
    ("core.boundaries", "count", "lower");
    ("core.guards", "count", "lower");
    ("core.pruned", "count", "higher");
    ("isa.link_s", "s", "lower");
    ("isa.code_words", "count", "lower");
    ("harness.compile_cache_hits", "count", "higher");
    ("harness.compile_cache_misses", "count", "lower");
    ("harness.decode_cache_hits", "count", "higher");
    ("harness.decode_cache_misses", "count", "lower");
    ("machine.decode_s", "s", "lower");
    ("machine.fused_share", "ratio", "higher");
    ("machine.run_s", "s", "lower");
    ("machine.instr_per_sec", "1/s", "higher");
    ("machine.instr_per_sec.nvp", "1/s", "higher");
    ("machine.instr_per_sec.ratchet", "1/s", "higher");
    ("machine.instr_per_sec.gecko", "1/s", "higher");
    ("machine.instructions", "count", "higher");
    ("machine.boundary_commits", "count", "lower");
    ("machine.ckpt_stores", "count", "lower");
    ("machine.guarded_stores", "count", "lower");
    ("machine.instrumentation_cycles", "count", "lower");
    ("machine.gecko_overhead_pct", "%", "lower");
    ("machine.rollbacks", "count", "lower");
    ("machine.detections", "count", "higher");
    ("machine.brownouts", "count", "lower");
    ("machine.jit_checkpoint_failures", "count", "lower");
    ("machine.misspeculations", "count", "lower");
    ("fleet.elaborate_s", "s", "lower");
    ("fleet.shard_s_p50", "s", "lower");
    ("fleet.shard_s_max", "s", "lower");
    ("fleet.engine_overhead_ratio", "ratio", "lower");
    ("fleet.device_ms_p50", "ms", "lower");
    ("fleet.device_ms_p95", "ms", "lower");
    ("fleet.merge_s", "s", "lower");
    ("fleet.telemetry_merge_s", "s", "lower");
    ("fleet.attacked_share", "ratio", "lower");
    ("fleet.gecko_progress_r", "ratio", "higher");
    ("obs.report_json_s", "s", "lower");
    ("obs.report_bytes", "bytes", "lower");
    ("faultinject.golden_s", "s", "lower");
    ("faultinject.census_s", "s", "lower");
    ("faultinject.explore_s", "s", "lower");
    ("faultinject.replay_ms_mean", "ms", "lower");
    ("faultinject.sites_total", "count", "higher");
    ("faultinject.explored", "count", "higher");
    ("faultinject.explored_pairs", "count", "higher");
    ("faultinject.instr_stride", "count", "lower");
    ("trace.coverage", "ratio", "higher");
    ("trace.overhead_pct", "%", "lower");
    ("trace.spans", "count", "lower");
  ]

(* ------------------------------------------------------------------ *)
(* Tracing: host-clock spans around calls into the layers              *)
(* ------------------------------------------------------------------ *)

type tracer = {
  trace : Trace.t;
  origin : float;
  reg : Metrics.registry;  (** [Pipeline.compile ~metrics] pass histograms. *)
  spans : (string, float list) Hashtbl.t;  (** Span name -> durations. *)
  mutable depth : int;
  mutable covered : float;  (** Seconds under top-level spans. *)
  mutable count : int;
}

let new_tracer () =
  {
    trace = Trace.create ();
    origin = now ();
    reg = Metrics.create ();
    spans = Hashtbl.create 32;
    depth = 0;
    covered = 0.;
    count = 0;
  }

(* Record a finished span.  Spans measured on a worker domain are
   handed back and recorded here, on the main domain, which owns the
   recorder. *)
let record t ?(tid = 0) ~cat name ~start ~dur =
  Trace.complete t.trace ~cat ~tid ~ts:(start -. t.origin) ~dur name;
  t.count <- t.count + 1;
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.spans name) in
  Hashtbl.replace t.spans name (dur :: prev)

let span tracer ~cat name f =
  match tracer with
  | None -> f ()
  | Some t ->
      let start = now () in
      t.depth <- t.depth + 1;
      let finish () =
        let dur = now () -. start in
        t.depth <- t.depth - 1;
        if t.depth = 0 then t.covered <- t.covered +. dur;
        record t ~cat name ~start ~dur
      in
      Fun.protect ~finally:finish f

let durations t name = Option.value ~default:[] (Hashtbl.find_opt t.spans name)
let span_sum t name = List.fold_left ( +. ) 0. (durations t name)

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

(* A compiler configuration.  [mode = None] is the pipeline default;
   only [Speculative] is named, so deleting a mode the benchmark does
   not name never touches this file. *)
type build = { scheme : Core.Scheme.t; mode : Core.Mode.t option; slug : string }

let nvp = { scheme = Core.Scheme.Nvp; mode = None; slug = "nvp" }
let ratchet = { scheme = Core.Scheme.Ratchet; mode = None; slug = "ratchet" }

let gecko_noprune =
  { scheme = Core.Scheme.Gecko_noprune; mode = None; slug = "gecko-noprune" }

let gecko_default = { scheme = Core.Scheme.Gecko; mode = None; slug = "gecko-default" }

let gecko =
  { scheme = Core.Scheme.Gecko; mode = Some Core.Mode.Speculative; slug = "gecko" }

type compiled = {
  program : string;
  build : build;
  prog : Gecko_isa.Cfg.program;  (** The compiled (instrumented) program. *)
  image : Link.image;
  meta : Core.Meta.t;
}

let build_program tracer name =
  span tracer ~cat:"workloads" "workloads.build" (fun () ->
      (Workload.find name).Workload.build ())

(* Cold compile + link, exactly what the Workbench cache does on a miss. *)
let compile tracer b name src =
  let metrics = Option.map (fun t -> t.reg) tracer in
  let prog, meta =
    span tracer ~cat:"core" "core.compile" (fun () ->
        Core.Pipeline.compile ?mode:b.mode ?metrics b.scheme src)
  in
  let image =
    span tracer ~cat:"isa" "isa.link" (fun () ->
        Link.link ~guards:meta.Core.Meta.guards prog)
  in
  { program = name; build = b; prog; image; meta }

(* Output check: every compiled image must leave the data segment the
   NVP image leaves after an uninterrupted run. *)
let golden_checks tracer (images : compiled list) =
  let board = Board.default () in
  let golden c =
    span tracer ~cat:"machine" "machine.golden" (fun () ->
        M.golden_nvm ~board ~image:c.image ~meta:c.meta)
  in
  let refs = Hashtbl.create 16 in
  List.iter
    (fun c -> if c.build.scheme = Core.Scheme.Nvp then Hashtbl.replace refs c.program (golden c))
    images;
  List.filter_map
    (fun c ->
      if c.build.scheme = Core.Scheme.Nvp then None
      else
        let ok =
          match Hashtbl.find_opt refs c.program with
          | Some g -> golden c = g
          | None -> false
        in
        if not ok then
          Printf.eprintf "perf: %s/%s: golden NVM differs from NVP's\n%!"
            c.program c.build.slug;
        Some ok)
    images

(* Static compiler counters over the GECKO builds, plus the code size of
   every image. *)
let static_layers (images : compiled list) =
  let specs = List.filter (fun c -> c.build.scheme = Core.Scheme.Gecko) images in
  let sum f l = float_of_int (List.fold_left (fun n c -> n + f c) 0 l) in
  [
    ("core.static_ckpt_stores", sum (fun c -> Core.Pipeline.checkpoint_store_count c.prog) specs);
    ("core.boundaries", sum (fun c -> Core.Pipeline.boundary_count c.prog) specs);
    ("core.guards", sum (fun c -> List.length c.meta.Core.Meta.guards) specs);
    ("core.pruned", sum (fun c -> c.meta.Core.Meta.stats.Core.Meta.pruned) specs);
    ("isa.code_words", sum (fun c -> Array.length c.image.Link.code) images);
  ]

(* Per-pass compile time from the pipeline's own histograms (CPU
   seconds, [Sys.time]), and link time from the spans. *)
let compiler_layers t =
  let pass name =
    ( "core." ^ name ^ "_s",
      Metrics.hist_sum (Metrics.histogram t.reg ("pipeline." ^ name ^ ".seconds")) )
  in
  List.map pass
    [ "copy"; "regions"; "split"; "regions2"; "coloring"; "emit"; "guards"; "verify" ]
  @ [ ("isa.link_s", span_sum t "isa.link") ]

let harness_layers () =
  let hits, misses = Workbench.cache_counts () in
  let dhits, dmisses = Workbench.decode_counts () in
  [
    ("harness.compile_cache_hits", float_of_int hits);
    ("harness.compile_cache_misses", float_of_int misses);
    ("harness.decode_cache_hits", float_of_int dhits);
    ("harness.decode_cache_misses", float_of_int dmisses);
  ]

let ratio a b = if b > 0. then a /. b else 0.
let ms xs = List.map (fun s -> 1000. *. s) xs

let shuffled ~seed k xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create ((seed * 1_000_003) + k)) a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One operation: applying it to the tracer is the timed call; the check
   it returns runs untimed and yields (output correct, work items done). *)
type op = tracer option -> unit -> bool * float

type prepared = {
  checks : bool list;  (** Set-up output checks. *)
  pass : int -> op list;  (** The operations of pass [k], in seeded order. *)
  layers : tracer -> (string * float) list;  (** After the traced phase. *)
}

type workload = {
  name : string;
  domains : int;  (** Domains the process runs on, fixed here. *)
  prepare : smoke:bool -> seed:int -> tracer option -> prepared;
}

(* --- interp-solo ------------------------------------------------------ *)

(* Continuous power, no attack, decode cached: the interpreter's
   whole-block fast dispatch does the work.  The programs span the fused
   share (qsort lowest, crc32 highest) and the guard count (dhrystone
   most). *)
let interp_programs = [ "crc32"; "fir"; "qsort"; "dhrystone"; "dijkstra" ]

let interp_solo ~smoke ~seed tracer =
  let board = Board.default () in
  let device = board.Board.device in
  let sim = if smoke then 0.01 else 0.25 in
  let images =
    List.concat_map
      (fun name ->
        let src = build_program tracer name in
        List.map (fun b -> compile tracer b name src) [ nvp; ratchet; gecko ])
      interp_programs
  in
  let checks = golden_checks tracer images in
  let runs =
    List.map
      (fun c ->
        let dec =
          span tracer ~cat:"machine" "machine.decode" (fun () ->
              Decode.decode ~device c.image)
        in
        (c, dec))
      images
  in
  (* Last outcome per (program, build): one pass's exact totals. *)
  let outcomes = Hashtbl.create 16 in
  let by_scheme = Hashtbl.create 4 in
  let run (c, dec) : op =
    let opts =
      {
        M.default_options with
        limit = M.Sim_time sim;
        max_sim_time = sim +. 1.;
        restart_on_halt = true;
        seed;
        decoded = Some dec;
      }
    in
    fun tracer ->
      let t0 = now () in
      let o =
        span tracer ~cat:"machine" "machine.run" (fun () ->
            M.run ~board ~image:c.image ~meta:c.meta opts)
      in
      (if tracer <> None then
         let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_scheme c.build.slug) in
         Hashtbl.replace by_scheme c.build.slug (t +. now () -. t0, n + o.M.instructions));
      fun () ->
        Hashtbl.replace outcomes (c.program, c.build.slug) (c, o);
        (o.M.hit_limit && o.M.brownouts = 0 && o.M.corruptions = 0
         && o.M.rollbacks = 0 && o.M.instructions > 0,
          float_of_int o.M.instructions)
  in
  let ops = List.map run runs in
  let layers t =
    let all = Hashtbl.fold (fun _ v acc -> v :: acc) outcomes [] in
    let total f l = float_of_int (List.fold_left (fun n (_, o) -> n + f o) 0 l) in
    let geckos = List.filter (fun (c, _) -> c.build = gecko) all in
    let rate slug =
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_scheme slug) in
      ratio (float_of_int n) t
    in
    let run_s = span_sum t "machine.run" in
    static_layers images @ compiler_layers t
    @ [
        ("machine.decode_s", span_sum t "machine.decode");
        ("machine.fused_share", Stats.mean (List.map (fun (_, d) -> Decode.fused_share d) runs));
        ("machine.run_s", run_s);
        ( "machine.instr_per_sec",
          ratio
            (Hashtbl.fold (fun _ (_, n) acc -> acc +. float_of_int n) by_scheme 0.)
            run_s );
        ("machine.instr_per_sec.nvp", rate nvp.slug);
        ("machine.instr_per_sec.ratchet", rate ratchet.slug);
        ("machine.instr_per_sec.gecko", rate gecko.slug);
        ("machine.instructions", total (fun o -> o.M.instructions) all);
        ("machine.boundary_commits", total (fun o -> o.M.boundary_commits) all);
        ("machine.ckpt_stores", total (fun o -> o.M.ckpt_stores) all);
        ("machine.guarded_stores", total (fun o -> o.M.guarded_stores) all);
        ("machine.instrumentation_cycles", total (fun o -> o.M.instrumentation_cycles) all);
        ( "machine.gecko_overhead_pct",
          100.
          *. ratio
               (total (fun o -> o.M.instrumentation_cycles) geckos)
               (total (fun o -> o.M.app_cycles) geckos) );
        ("machine.rollbacks", total (fun o -> o.M.rollbacks) all);
        ("machine.detections", total (fun o -> o.M.detections) all);
        ("machine.brownouts", total (fun o -> o.M.brownouts) all);
        ("machine.jit_checkpoint_failures", total (fun o -> o.M.jit_checkpoint_failures) all);
        ("machine.misspeculations", total (fun o -> o.M.misspeculations) all);
      ]
  in
  { checks; pass = (fun k -> shuffled ~seed k ops); layers }

(* --- fleet-attack ----------------------------------------------------- *)

(* The campaign path under attack: elaboration, field schedules, the
   shard pool, the aggregate/telemetry folds, and attack edges that
   drop devices out of fast blocks onto the checked path. *)
let fleet_workloads = [ "crc16"; "crc32"; "bitcnt"; "fir"; "qsort"; "dijkstra" ]
let fleet_builds = [ nvp; ratchet; gecko_default ]

let fleet_spec ~smoke seed =
  Spec.make
    ~devices:(if smoke then 16 else 128)
    ~attackers:4 ~workload_mix:fleet_workloads
    ~scheme_mix:(List.map (fun b -> b.scheme) fleet_builds)
    ~board_mix:[ Spec.Attack_rig; Spec.Bench ] ~seed ()

let telemetry = Telemetry.default_config

(* The report must be complete, GECKO must never corrupt, and the
   report's aggregate sections must survive a JSON round trip.  Returns
   the verdict and the size of the report's JSON. *)
let check_report tracer spec (rep : Report.t) =
  let text =
    span tracer ~cat:"obs" "obs.report_json" (fun () -> Json.to_string (Report.to_json rep))
  in
  let back =
    match Json.parse text with
    | Ok j -> Some (Report.of_json j)
    | Error _ -> None
  in
  let agg a = Json.to_string (Agg.to_json a) in
  let groups g = List.map (fun (k, a) -> (k, agg a)) g in
  let gecko_corruptions =
    List.fold_left
      (fun n (k, a) -> if k = Spec.scheme_slug Core.Scheme.Gecko then n + a.Agg.corruptions else n)
      0 rep.Report.per_scheme
  in
  ( rep.Report.total.Agg.devices = spec.Spec.devices
    && gecko_corruptions = 0
    && (match back with
       | None -> false
       | Some b ->
           Spec.equal b.Report.spec rep.Report.spec
           && agg b.Report.total = agg rep.Report.total
           && groups b.Report.per_scheme = groups rep.Report.per_scheme
           && groups b.Report.per_workload = groups rep.Report.per_workload),
    String.length text )

(* The traced campaign: Campaign.run's steps, one public call at a time
   — elaborate, waves of [run_shard] over the pool, shard-order merge. *)
let traced_campaign t spec =
  let devices, field =
    span (Some t) ~cat:"fleet" "fleet.elaborate" (fun () -> Campaign.elaborate spec)
  in
  let wave = Workbench.jobs () in
  let rec waves acc = function
    | [] -> List.rev acc
    | ids ->
        let chunk = List.filteri (fun i _ -> i < wave) ids in
        let rest = List.filteri (fun i _ -> i >= wave) ids in
        let results =
          span (Some t) ~cat:"fleet" "fleet.wave" (fun () ->
              Workbench.pmap
                (fun sid ->
                  let start = now () in
                  let sr = Campaign.run_shard ~telemetry ~spec ~field ~devices sid in
                  (sr, start, now () -. start, (Domain.self () :> int)))
                chunk)
        in
        List.iter
          (fun (_, start, dur, tid) -> record t ~tid ~cat:"fleet" "fleet.run_shard" ~start ~dur)
          results;
        waves (List.rev_append (List.map (fun (sr, _, _, _) -> sr) results) acc) rest
  in
  let shards = waves [] (List.init (Spec.shards spec) Fun.id) in
  let rep =
    span (Some t) ~cat:"fleet" "fleet.merge" (fun () -> Campaign.report_of_shards spec shards)
  in
  ignore
    (span (Some t) ~cat:"fleet" "fleet.telemetry_merge" (fun () ->
         List.fold_left
           (fun acc sr ->
             match (acc, sr.Campaign.sr_telemetry) with
             | None, x -> x
             | Some a, Some b -> Some (Telemetry.merge a b)
             | Some _, None -> acc)
           None shards));
  rep

(* Engine overhead: the first 8 shards of [spec] once more, each as one
   [run_shard] and as its devices one [run_device] at a time, on the
   same pool. *)
let engine_probe spec =
  let devices, field = Campaign.elaborate spec in
  let shard_ids = List.init (min 8 (Spec.shards spec)) Fun.id in
  Workbench.pmap
    (fun sid ->
      let t0 = now () in
      ignore (Campaign.run_shard ~telemetry ~spec ~field ~devices sid);
      let shard_s = now () -. t0 in
      let lo = sid * spec.Spec.shard_size in
      let hi = min spec.Spec.devices (lo + spec.Spec.shard_size) in
      let per_device =
        List.init (hi - lo) (fun i ->
            let d = devices.(lo + i) in
            let t0 = now () in
            let agg, _, _ = Campaign.run_device ~telemetry ~spec ~field d in
            (d.Campaign.scheme, now () -. t0, agg.Agg.instructions))
      in
      (shard_s, per_device))
    shard_ids

let fleet_attack ~smoke ~seed tracer =
  let spec k = fleet_spec ~smoke ((seed * 1000) + k) in
  (* Set-up: elaboration, and the compile/link/decode and golden checks
     a campaign's Workbench cache performs — done cold, so every set-up
     repeats the same work. *)
  ignore (span tracer ~cat:"fleet" "fleet.elaborate" (fun () -> Campaign.elaborate (spec 0)));
  let board = Board.default () in
  let images =
    List.concat_map
      (fun name ->
        let src = build_program tracer name in
        List.map (fun b -> compile tracer b name src) fleet_builds)
      fleet_workloads
  in
  List.iter
    (fun c ->
      ignore
        (span tracer ~cat:"machine" "machine.decode" (fun () ->
             Decode.decode ~device:board.Board.device c.image)))
    images;
  let checks = golden_checks tracer images in
  let first_traced = ref None and traced_instructions = ref 0 in
  let op k : op =
    let spec = spec k in
    fun tracer ->
      match tracer with
      | None ->
          let r = Campaign.run ~telemetry spec in
          fun () ->
            ( (match r.Campaign.report with
              | Some rep -> fst (check_report None spec rep)
              | None -> false),
              float_of_int r.Campaign.devices_run )
      | Some t ->
          let rep = traced_campaign t spec in
          traced_instructions := !traced_instructions + rep.Report.total.Agg.instructions;
          fun () ->
            let ok, bytes = check_report tracer spec rep in
            if !first_traced = None then first_traced := Some (spec, rep, bytes);
            (ok, float_of_int rep.Report.total.Agg.devices)
  in
  let layers t =
    let shard_s = durations t "fleet.run_shard" in
    let wave_s = span_sum t "fleet.wave" in
    let per_op name = Stats.mean (durations t name) in
    let exact =
      match !first_traced with
      | None -> []
      | Some (spec, rep, bytes) ->
          let reg = Metrics.of_persist rep.Report.metrics_persist in
          let c name = float_of_int (Metrics.counter_value (Metrics.counter reg name)) in
          let probe = engine_probe spec in
          let devs = List.concat_map snd probe in
          let dev_s = List.map (fun (_, s, _) -> s) devs in
          let rate scheme =
            let s, n =
              List.fold_left
                (fun (s, n) (sc, d, i) -> if sc = scheme then (s +. d, n + i) else (s, n))
                (0., 0) devs
            in
            ratio (float_of_int n) s
          in
          let progress =
            match List.assoc_opt (Spec.scheme_slug Core.Scheme.Gecko) rep.Report.per_scheme with
            | Some a -> Stats.Acc.mean a.Agg.progress
            | None -> 0.
          in
          [
            ( "fleet.engine_overhead_ratio",
              ratio (List.fold_left (fun a (s, _) -> a +. s) 0. probe) (List.fold_left ( +. ) 0. dev_s) );
            ("fleet.device_ms_p50", Stats.percentile 50. (ms dev_s));
            ("fleet.device_ms_p95", Stats.percentile 95. (ms dev_s));
            ("machine.instr_per_sec.nvp", rate Core.Scheme.Nvp);
            ("machine.instr_per_sec.ratchet", rate Core.Scheme.Ratchet);
            ("machine.instr_per_sec.gecko", rate Core.Scheme.Gecko);
            ( "fleet.attacked_share",
              ratio (float_of_int rep.Report.total.Agg.attacked_devices)
                (float_of_int rep.Report.total.Agg.devices) );
            ("fleet.gecko_progress_r", progress);
            ("obs.report_bytes", float_of_int bytes);
            ("machine.instructions", float_of_int rep.Report.total.Agg.instructions);
            ("machine.boundary_commits", c "machine.boundary_commits");
            ("machine.ckpt_stores", c "machine.ckpt_stores");
            ("machine.guarded_stores", c "machine.guarded_stores");
            ("machine.instrumentation_cycles", c "machine.instrumentation_cycles");
            ("machine.rollbacks", c "machine.rollbacks");
            ("machine.detections", c "machine.detections");
            ("machine.brownouts", c "machine.brownouts");
            ("machine.jit_checkpoint_failures", c "machine.jit_checkpoint_failures");
            ("machine.misspeculations", c "machine.misspeculations");
          ]
    in
    static_layers images @ compiler_layers t @ exact
    @ [
        ("machine.decode_s", span_sum t "machine.decode");
        ("machine.instr_per_sec", ratio (float_of_int !traced_instructions) wave_s);
        ("fleet.elaborate_s", per_op "fleet.elaborate");
        ("fleet.shard_s_p50", Stats.percentile 50. shard_s);
        ("fleet.shard_s_max", Stats.maximum shard_s);
        ("fleet.merge_s", per_op "fleet.merge");
        ("fleet.telemetry_merge_s", per_op "fleet.telemetry_merge");
        ("obs.report_json_s", per_op "obs.report_json");
      ]
  in
  { checks; pass = (fun k -> [ op k ]); layers }

(* --- compile-suite ---------------------------------------------------- *)

(* Cold compiles only, no simulation: analysis, pruning and verify
   changes show here and interpreter changes cannot. *)
let compile_builds = [ ratchet; gecko_noprune; gecko_default; gecko ]

let compile_suite ~smoke ~seed tracer =
  let programs = if smoke then [ "crc16"; "fir" ] else Workload.names in
  let sources = List.map (fun name -> (name, build_program tracer name)) programs in
  let images =
    List.concat_map
      (fun (name, src) -> List.map (fun b -> compile tracer b name src) (nvp :: compile_builds))
      sources
  in
  let checks = golden_checks tracer images in
  let op (name, src) b : op =
   fun tracer ->
    match compile tracer b name src with
    | _ -> fun () -> (true, 1.)
    | exception Failure msg ->
        fun () ->
          Printf.eprintf "perf: compile %s/%s failed: %s\n%!" name b.slug msg;
          (false, 1.)
  in
  let ops = List.concat_map (fun s -> List.map (op s) compile_builds) sources in
  let layers t =
    static_layers images @ compiler_layers t
    @ [ ("core.compile_ms_p99", Stats.percentile 99. (ms (durations t "core.compile"))) ]
  in
  { checks; pass = (fun k -> shuffled ~seed k ops); layers }

(* --- explore-crash ---------------------------------------------------- *)

(* Every replay carries an injector, so the machine runs its
   per-instruction checked path instead of fast blocks: a dispatch
   change that speeds blocks but slows the checked path loses here. *)
let explore_programs = [ "crc32"; "qsort"; "fft"; "dhrystone" ]

(* A micro-cap board on a weak supply that browns out every few hundred
   instructions, so every recovery path is in the census (the board the
   `gecko explore` command uses). *)
let explore_board () =
  {
    (Board.default
       ~harvester:(Gecko_energy.Harvester.thevenin ~v_source:3.3 ~r_source:2000.)
       ())
    with
    Board.capacitance = 0.6e-6;
    v_backup = 2.8;
  }

let explore_domains = 2

let explore_crash ~smoke ~seed tracer =
  let board = explore_board () in
  let budget, pairs = if smoke then (16, 4) else (512, 64) in
  let images =
    List.concat_map
      (fun name ->
        let src = build_program tracer name in
        List.map (fun b -> compile tracer b name src) [ nvp; gecko ])
      explore_programs
  in
  let checks = golden_checks tracer images in
  let targets = List.filter (fun c -> c.build = gecko) images in
  (* The explorer's own references, its golden run and its site census,
     are also the first steps of every explore call: timed here once per
     program so replay time can be told apart. *)
  let overhead = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let t0 = now () in
      ignore
        (span tracer ~cat:"faultinject" "faultinject.golden" (fun () ->
             Explore.golden ~board ~image:c.image ~meta:c.meta ()));
      ignore
        (span tracer ~cat:"faultinject" "faultinject.census" (fun () ->
             Inject.census ~board ~image:c.image ~meta:c.meta Explore.default_opts));
      Hashtbl.replace overhead c.program (now () -. t0))
    targets;
  let reports = Hashtbl.create 4 in
  let replay_s = ref 0. and replays = ref 0 in
  let op c : op =
   fun tracer ->
    let t0 = now () in
    let r =
      span tracer ~cat:"faultinject" "faultinject.explore" (fun () ->
          Explore.explore ~jobs:explore_domains ~budget ~pairs ~seed ~board ~image:c.image ~meta:c.meta ())
    in
    let n = r.Explore.explored + r.Explore.explored_pairs in
    if tracer <> None then begin
      replay_s :=
        !replay_s +. (now () -. t0)
        -. Option.value ~default:0. (Hashtbl.find_opt overhead c.program);
      replays := !replays + n
    end;
    fun () ->
      Hashtbl.replace reports c.program r;
      List.iter
        (fun f ->
          Printf.eprintf "perf: explore %s: failure at %s: %s\n%!" c.program
            f.Explore.f_kind f.Explore.f_detail)
        r.Explore.failures;
      (r.Explore.baseline_ok && r.Explore.failures = [], float_of_int n)
  in
  let ops = List.map op targets in
  let layers t =
    let rs = Hashtbl.fold (fun _ r acc -> r :: acc) reports [] in
    let total f = float_of_int (List.fold_left (fun n r -> n + f r) 0 rs) in
    static_layers images @ compiler_layers t
    @ [
        ("faultinject.golden_s", span_sum t "faultinject.golden");
        ("faultinject.census_s", span_sum t "faultinject.census");
        ("faultinject.explore_s", span_sum t "faultinject.explore");
        ("faultinject.replay_ms_mean", 1000. *. ratio !replay_s (float_of_int !replays));
        ("faultinject.sites_total", total (fun r -> r.Explore.sites_total));
        ("faultinject.explored", total (fun r -> r.Explore.explored));
        ("faultinject.explored_pairs", total (fun r -> r.Explore.explored_pairs));
        ( "faultinject.instr_stride",
          float_of_int (List.fold_left (fun m r -> max m r.Explore.instr_stride) 0 rs) );
      ]
  in
  { checks; pass = (fun k -> shuffled ~seed k ops); layers }

let workloads =
  [
    { name = "interp-solo"; domains = 1; prepare = interp_solo };
    (* One domain: at two, waves of two coarse shards left one domain
       idle whenever the other vCPU of the 2-vCPU host stalled, and the
       10-run spread of devices/s reached 14-26% of the median. *)
    { name = "fleet-attack"; domains = 1; prepare = fleet_attack };
    { name = "compile-suite"; domains = 1; prepare = compile_suite };
    { name = "explore-crash"; domains = explore_domains; prepare = explore_crash };
  ]

(* ------------------------------------------------------------------ *)
(* Running one workload                                                *)
(* ------------------------------------------------------------------ *)

type options = {
  seed : int;
  seconds : float;
  trace_file : string option;
  smoke : bool;
}

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type sample = { dt : float; items : float; cov : float }

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) metrics;
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Assoc
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
          ]))

let run_workload w o =
  (* The Workbench pool is serial for every workload ([GECKO_JOBS] is
     ignored); only the explorer's own pool adds a domain. *)
  Workbench.set_jobs 1;
  let trace_out = Option.map (fun file -> (file, new_tracer ())) o.trace_file in
  let tracer = Option.map snd trace_out in
  (* Set-up is repeated (at least 5 times and 1 s) so setup_s is a
     median; each repetition does the same cold work.  Only the last one
     is traced, so span sums count one set-up. *)
  let setup_s = ref [] in
  let rec setup n =
    let enough = o.smoke || (n >= 5 && List.fold_left ( +. ) 0. !setup_s >= 1.) || n >= 50 in
    Gc.compact ();
    let t0 = now () in
    let p = w.prepare ~smoke:o.smoke ~seed:o.seed (if enough then tracer else None) in
    setup_s := (now () -. t0) :: !setup_s;
    if enough then p else setup (n + 1)
  in
  let p = setup 1 in
  let setups = List.length !setup_s in
  let attempted = ref (List.length p.checks) in
  let failed = ref (List.length (List.filter not p.checks)) in
  let run_op tracer (op : op) =
    incr attempted;
    let c0 = match tracer with Some t -> t.covered | None -> 0. in
    let t0 = now () in
    let check =
      try Some (op tracer)
      with e ->
        Printf.eprintf "perf: %s: operation raised %s\n%!" w.name (Printexc.to_string e);
        None
    in
    let dt = now () -. t0 in
    let cov = match tracer with Some t -> t.covered -. c0 | None -> 0. in
    let ok, items =
      match check with
      | None -> (false, 0.)
      | Some c -> ( try c () with e ->
          Printf.eprintf "perf: %s: check raised %s\n%!" w.name (Printexc.to_string e);
          (false, 0.))
    in
    if not ok then incr failed;
    { dt; items; cov }
  in
  (* One untimed warm-up operation fills the process's caches. *)
  ignore (run_op None (List.hd (p.pass 0)));
  Gc.compact ();
  (* Whole passes until the time is up; a traced run alternates untraced
     and traced passes so the two walls compare like for like. *)
  let untraced = ref [] and traced = ref [] and pass_rates = ref [] in
  let start = now () in
  let k = ref 0 in
  while !k < (if tracer = None then 1 else 2) || now () -. start < o.seconds do
    let tr = if !k mod 2 = 1 then tracer else None in
    let samples = List.map (run_op tr) (p.pass !k) in
    let sum f = List.fold_left (fun a s -> a +. f s) 0. samples in
    if tr = None then begin
      untraced := samples @ !untraced;
      pass_rates := ratio (sum (fun s -> s.items)) (sum (fun s -> s.dt)) :: !pass_rates
    end
    else traced := samples @ !traced;
    incr k
  done;
  let correct = !failed = 0 in
  Printf.printf "# workload %s seed %d domains %d passes %d ops %d setups %d\n" w.name o.seed
    w.domains !k (List.length !untraced) setups;
  let metrics =
    match trace_out with
    | Some (file, t) ->
        let sum f l = List.fold_left (fun a s -> a +. f s) 0. l in
        let per_item l = ratio (sum (fun s -> s.dt) l) (sum (fun s -> s.items) l) in
        let layers =
          p.layers t @ harness_layers ()
          @ [
              ("trace.coverage", ratio (sum (fun s -> s.cov) !traced) (sum (fun s -> s.dt) !traced));
              ( "trace.overhead_pct",
                100. *. (ratio (per_item !traced) (per_item !untraced) -. 1.) );
              ("trace.spans", float_of_int t.count);
            ]
        in
        List.iter
          (fun (n, _) ->
            if not (List.exists (fun (m, _, _) -> m = n) per_layer) then
              failwith ("perf: layer metric missing from the table: " ^ n))
          layers;
        let oc = open_out file in
        output_string oc (Trace.to_chrome_string t.trace);
        close_out oc;
        List.map
          (fun (n, u, _) -> (n, Option.value ~default:0. (List.assoc_opt n layers), u))
          per_layer
    | None ->
        let op_ms = ms (List.map (fun s -> s.dt) !untraced) in
        [
          ("setup_s", Stats.median !setup_s, "s");
          ("items_per_sec", Stats.median !pass_rates, "1/s");
          ("op_ms_p50", Stats.percentile 50. op_ms, "ms");
          ("op_ms_p90", Stats.percentile 90. op_ms, "ms");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ]
  in
  emit ~correct ~attempted:!attempted ~failed:!failed metrics;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* repeat and smoke: this executable re-run in fresh processes         *)
(* ------------------------------------------------------------------ *)

let exec_self args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (Unix.close_process_in ic = Unix.WEXITED 0, out)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing key " ^ k)

let to_number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "not a number"

(* The result line: the last line of a run's output. *)
let parse_result lines =
  match List.rev lines with
  | [] -> failwith "no output"
  | last :: _ -> (
      match Json.parse last with Ok j -> j | Error e -> failwith ("bad result line: " ^ e))

let metric_values result =
  match member_exn "metrics" result with
  | Json.Assoc ms -> List.map (fun (n, m) -> (n, to_number (member_exn "value" m))) ms
  | _ -> failwith "metrics is not an object"

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let run_args w o =
  [ "run"; w; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds ]
  @ if o.smoke then [ "--smoke" ] else []

let repeat w o ~runs =
  let results =
    List.init runs (fun i ->
        let ok, lines = exec_self (run_args w o) in
        if not ok then failwith (Printf.sprintf "perf: run %d of %s failed" (i + 1) w);
        let values = metric_values (parse_result lines) in
        Printf.printf "run %d:%s\n%!" (i + 1)
          (String.concat "" (List.map (fun (n, v) -> Printf.sprintf " %s=%.6g" n v) values));
        values)
  in
  Printf.printf "%s: %d runs, seed %d\n%-16s %14s %14s %14s %8s %6s\n" w runs o.seed "metric"
    "median" "q1" "q3" "iqr/med" "bound";
  let over = ref false in
  List.iter
    (fun (name, _, _, bound) ->
      let vs = List.map (List.assoc name) results in
      let med = Stats.median vs in
      let q1, q3 = quartiles vs in
      let spread = ratio (q3 -. q1) (Float.abs med) in
      let flag = spread > bound in
      if flag then over := true;
      Printf.printf "%-16s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n" name med q1 q3 spread bound
        (if flag then "  OVER BOUND" else ""))
    end_to_end;
  if !over then exit 1

(* Run every workload at smoke size, untraced and traced, and hold the
   printed metric names and units to BENCHMARK.json. *)
let smoke bench_file =
  let text = In_channel.with_open_bin bench_file In_channel.input_all in
  let bench = match Json.parse text with Ok j -> j | Error e -> failwith e in
  let list k = match member_exn k bench with Json.List l -> l | _ -> failwith k in
  let str k j = match member_exn k j with Json.String s -> s | _ -> failwith k in
  let declared k = List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list k) in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf smoke: " ^ s); exit 1) fmt in
  let ours = List.map (fun w -> w.name) workloads in
  if List.map (str "name") (list "workloads") <> ours then fail "workload names differ";
  if declared "end_to_end" <> List.map (fun (n, u, b, _) -> (n, u, b)) end_to_end then
    fail "end_to_end metrics differ";
  if declared "per_layer" <> per_layer then fail "per_layer metrics differ";
  List.iter
    (fun m ->
      let n = str "name" m in
      let _, _, _, bound = List.find (fun (x, _, _, _) -> x = n) end_to_end in
      if to_number (member_exn "bound" m) <> bound then fail "bound of %s differs" n)
    (list "end_to_end");
  let check w args expected =
    let ok, lines = exec_self args in
    if not ok then fail "%s %s exited non-zero" w (String.concat " " args);
    let printed =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ n; _; u ] when l.[0] <> '#' -> Some (n, u)
          | _ -> None)
        lines
    in
    if printed <> List.map (fun (n, u, _) -> (n, u)) expected then
      fail "%s: printed metrics differ from BENCHMARK.json" w;
    let result = parse_result lines in
    if member_exn "correct" result <> Json.Bool true || member_exn "failed" result <> Json.Int 0
    then fail "%s: outputs did not check" w;
    if List.map fst (metric_values result) <> List.map (fun (n, _, _) -> n) expected then
      fail "%s: result line metrics differ from BENCHMARK.json" w;
    metric_values result
  in
  List.iter
    (fun w ->
      let base = run_args w { seed = 1; seconds = 0.; trace_file = None; smoke = true } in
      ignore (check w base (List.map (fun (n, u, b, _) -> (n, u, b)) end_to_end));
      let file = Filename.concat (Sys.getcwd ()) (w ^ ".smoke-trace.json") in
      let layers = check w (base @ [ "--trace"; file ]) per_layer in
      (match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
      | Ok j when Json.member "traceEvents" j <> None -> ()
      | _ -> fail "%s: trace file is not Chrome JSON" w);
      let coverage = List.assoc "trace.coverage" layers in
      if coverage < 0.95 then fail "%s: spans cover only %.3f of the traced wall" w coverage;
      Printf.printf "smoke %s: ok (trace.coverage %.3f)\n%!" w coverage)
    ours

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe run <workload> [--seed N] [--seconds S] [--trace FILE] [--smoke]\n\
    \       perf.exe repeat <workload> [--runs N] [--seed N] [--seconds S] [--smoke]\n\
    \       perf.exe smoke BENCHMARK.json\n\
     workloads: interp-solo fleet-attack compile-suite explore-crash";
  exit 2

let () =
  let find_workload name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let rec parse o runs = function
    | [] -> (o, runs)
    | "--seed" :: n :: rest -> parse { o with seed = int_of_string n } runs rest
    | "--seconds" :: s :: rest -> parse { o with seconds = float_of_string s } runs rest
    | "--trace" :: f :: rest -> parse { o with trace_file = Some f } runs rest
    | "--smoke" :: rest -> parse { o with smoke = true } runs rest
    | "--runs" :: n :: rest -> parse o (int_of_string n) rest
    | _ -> usage ()
  in
  let options args =
    try parse { seed = 1; seconds = 10.; trace_file = None; smoke = false } 5 args
    with Failure _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke"; file ] -> smoke file
  | "run" :: w :: args ->
      let w = find_workload w in
      let o, _ = options args in
      run_workload w o
  | "repeat" :: w :: args ->
      ignore (find_workload w);
      let o, runs = options args in
      repeat w o ~runs
  | _ -> usage ()
