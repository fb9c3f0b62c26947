open Gecko_emi
module U = Gecko_util
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Device = Gecko_devices.Device
module Catalog = Gecko_devices.Catalog
module Core = Gecko_core
module W = Gecko_workloads.Workload

type fidelity = Quick | Full
type artifact = { text : string; metrics : (string * float) list }

(* Metric keys are dotted paths of [a-z0-9_] segments. *)
let slug s =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | 'a' .. 'z' | '0' .. '9' | '.' -> c
      | _ -> '_')
    s

(* ------------------------------------------------------------------ *)
(* Shared knobs                                                        *)
(* ------------------------------------------------------------------ *)

let sweep_freqs = function
  | Quick ->
      [ 1.; 3.; 5.; 6.; 8.; 10.; 13.; 16.; 18.; 21.; 24.; 26.; 27.; 28.; 30.;
        35.; 40.; 50.; 70.; 100.; 200.; 500. ]
  | Full ->
      List.init 60 (fun i -> float_of_int (i + 1))
      @ List.init 8 (fun i -> 65. +. (5. *. float_of_int i))
      @ List.init 23 (fun i -> 120. +. (40. *. float_of_int i))

let sweep_duration = function Quick -> 0.04 | Full -> 0.15

let attack_board device monitor_choice =
  { (Board.attack_rig ~device ()) with Board.monitor_choice }

(* Forward-progress rate of the NVP sense app under [schedule],
   normalized to the attack-free run on the same board. *)
let rate_with ~board ~baseline schedule duration =
  let o =
    Workbench.run_sense ~opts:{ M.default_options with schedule }
      Core.Scheme.Nvp ~board ~duration
  in
  if baseline <= 0. then 0.
  else Float.min 1.0 (M.forward_progress o /. baseline)

let baseline_rate ~board duration =
  M.forward_progress (Workbench.run_sense Core.Scheme.Nvp ~board ~duration)

(* Every sweep point is an independent simulation: fan the frequency
   grid out over the experiment pool.  [pmap] preserves the input order
   so the series (and everything rendered from it) is identical at any
   pool size. *)
let sweep ~board ~make_attack ~fidelity =
  let duration = sweep_duration fidelity in
  let baseline = baseline_rate ~board duration in
  Workbench.pmap
    (fun f ->
      let attack = make_attack f in
      (f, rate_with ~board ~baseline (Schedule.always attack) duration))
    (sweep_freqs fidelity)

let min_point profile points =
  let gain f = Coupling.gain profile ~freq_hz:(f *. 1e6) in
  List.fold_left
    (fun (bf, br) (f, r) ->
      if r < br -. 1e-3 || (Float.abs (r -. br) <= 1e-3 && gain f > gain bf)
      then (f, r)
      else (bf, br))
    (0., infinity) points

let remote_signal ?(power_dbm = 20.) ?(distance_m = 0.1) f =
  Attack.remote ~distance_m (Signal.make ~freq_mhz:f ~power_dbm)

(* The remote sweep (20 dBm at 0.1 m) of one device's monitor, and its
   minimum resolved toward that monitor's coupling resonance: the one
   sweep behind Figs. 5 and 7 and Table I. *)
let device_sweep fidelity device monitor =
  let points =
    sweep ~board:(attack_board device monitor) ~fidelity
      ~make_attack:remote_signal
  in
  let fmin, rmin = min_point (Device.coupling device monitor) points in
  (points, fmin, rmin)

(* ------------------------------------------------------------------ *)
(* Figures 4, 5, 7: frequency sweeps                                   *)
(* ------------------------------------------------------------------ *)

let fig4_dpi_sweep fidelity =
  let devices =
    [ Catalog.msp430fr2311; Catalog.msp430fr5739; Catalog.msp430fr5994;
      Catalog.stm32l552ze ]
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Fig. 4 — DPI attack on ADC-based voltage monitors (forward-progress \
     rate vs frequency, 20 dBm)\n\n";
  List.iter
    (fun d ->
      let board = attack_board d Device.Use_adc in
      let series =
        List.map
          (fun point ->
            let label =
              match point with Attack.P1 -> "P1" | Attack.P2 -> "P2"
            in
            {
              U.Chart.label;
              points =
                sweep ~board ~fidelity ~make_attack:(fun f ->
                    Attack.dpi point
                      (Signal.make ~freq_mhz:f ~power_dbm:20.));
            })
          [ Attack.P1; Attack.P2 ]
      in
      Buffer.add_string buf
        (U.Chart.line_plot ~height:10 ~y_min:0. ~y_max:1.
           ~title:(Printf.sprintf "%s (DPI)" d.Device.model)
           ~x_label:"MHz" ~y_label:"R" series);
      Buffer.add_char buf '\n')
    devices;
  { text = Buffer.contents buf; metrics = [] }

(* Figs. 5 and 7: one chart per device that has [monitor], with its
   [key]-prefixed rmin and fmin_mhz metrics. *)
let remote_sweep_figure monitor ~heading ~key ~title fidelity =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf heading;
  let metrics =
    List.concat_map
      (fun d ->
        if monitor = Device.Use_comparator && not (Device.has_comparator d)
        then []
        else begin
          let points, fmin, rmin = device_sweep fidelity d monitor in
          Buffer.add_string buf
            (U.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
               ~title:(title d.Device.model (100. *. rmin) fmin)
               ~x_label:"MHz" ~y_label:"R"
               [ { U.Chart.label = "remote"; points } ]);
          Buffer.add_char buf '\n';
          let key = slug d.Device.model ^ "." ^ key in
          [ (key ^ "rmin", rmin); (key ^ "fmin_mhz", fmin) ]
        end)
      Catalog.all
  in
  { text = Buffer.contents buf; metrics }

let fig5_remote_adc_sweep =
  remote_sweep_figure Device.Use_adc ~key:""
    ~heading:
      "Fig. 5 — Remote attack on ADC-based voltage monitors (all nine \
       devices, 20 dBm at the reference distance)\n\n"
    ~title:(Printf.sprintf "%s   (min R = %.2f%% at %.0f MHz)")

let fig7_remote_comparator_sweep =
  remote_sweep_figure Device.Use_comparator ~key:"comp_"
    ~heading:"Fig. 7 — Remote attack on comparator-based voltage monitors\n\n"
    ~title:(Printf.sprintf "%s comparator   (min R = %.4f%% at %.0f MHz)")

(* ------------------------------------------------------------------ *)
(* Figure 8: power vs distance                                         *)
(* ------------------------------------------------------------------ *)

let fig8_distance fidelity =
  let d = Catalog.evaluation_board in
  let board = attack_board d Device.Use_adc in
  let duration = sweep_duration fidelity in
  let baseline = baseline_rate ~board duration in
  let distances = [ 0.5; 1.; 2.; 3.; 4.; 5. ] in
  let powers = [ 15.; 20.; 25.; 30.; 35. ] in
  let t =
    U.Table.create
      ~title:
        "Fig. 8 — Attack distance analysis on MSP430FR5994 (forward-progress \
         rate at 27 MHz; DoS = rate below 50%)"
      ~header:
        ("power \\ distance"
        :: List.map (fun d -> Printf.sprintf "%.1f m" d) distances)
      ()
  in
  (* Whole power x distance grid through the pool; DoS counting and the
     table rows are assembled serially from the ordered results. *)
  let grid =
    List.concat_map
      (fun p -> List.map (fun dist -> (p, dist)) distances)
      powers
  in
  let rates =
    Array.of_list
      (Workbench.pmap
         (fun (p, dist) ->
           let attack =
             Attack.remote ~distance_m:dist
               (Signal.make ~freq_mhz:27. ~power_dbm:p)
           in
           rate_with ~board ~baseline (Schedule.always attack) duration)
         grid)
  in
  let ncols = List.length distances in
  List.iteri
    (fun pi p ->
      U.Table.add_row t
        (Printf.sprintf "%.0f dBm" p
        :: List.init ncols (fun di ->
               let r = rates.((pi * ncols) + di) in
               Printf.sprintf "%.0f%%%s" (100. *. r)
                 (if r < 0.5 then " DoS" else ""))))
    powers;
  let dos = Array.fold_left (fun n r -> if r < 0.5 then n + 1 else n) 0 rates in
  {
    text = U.Table.render t;
    metrics =
      [
        ("dos_cells", float_of_int dos);
        ("cells", float_of_int (Array.length rates));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 9: real-time staged attack                                   *)
(* ------------------------------------------------------------------ *)

let fig9_realtime fidelity =
  let seg = match fidelity with Quick -> 0.25 | Full -> 1.0 in
  (* (start, stop, freq): the attacker modulates aggressiveness by moving
     on and off the monitor's own resonance (Section IV-B2). *)
  let stages_for = function
    | Device.Use_adc ->
        [ (1., 2., 27.); (3., 4., 25.); (5., 6., 29.5); (7., 8., 27.) ]
    | Device.Use_comparator ->
        [ (1., 2., 5.); (3., 4., 4.3); (5., 6., 6.6); (7., 8., 5.) ]
  in
  let schedule_for choice =
    Schedule.make
      (List.map
         (fun (a, b, f) ->
           Schedule.window ~t_start:(a *. seg) ~t_end:(b *. seg)
             (remote_signal ~power_dbm:20. f))
         (stages_for choice))
  in
  let total = 9. *. seg in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Fig. 9 — Real-time attack control on MSP430FR5994 (R per time bucket; \
     staged on/near/off-resonance frequencies per monitor)\n\n";
  let configs = [ ("ADC", Device.Use_adc); ("comparator", Device.Use_comparator) ] in
  let results =
    Workbench.pmap
      (fun (_name, choice) ->
        let board = attack_board Catalog.msp430fr5994 choice in
        let o =
          Workbench.run_sense Core.Scheme.Nvp ~board ~duration:total
            ~opts:
              {
                M.default_options with
                schedule = schedule_for choice;
                timeline_bucket = Some (seg /. 4.);
              }
        in
        (o, baseline_rate ~board (seg *. 2.)))
      configs
  in
  List.iter2
    (fun (name, _choice) (o, base) ->
      Option.iter
        (fun tl ->
          let pts =
            Array.to_list
              (Array.mapi
                 (fun i v ->
                   let r = v /. tl.M.bucket /. Float.max base 1e-9 in
                   (float_of_int i *. tl.M.bucket, Float.min 1.0 r))
                 tl.M.app_seconds_per_bucket)
          in
          let pts = List.filter (fun (t, _) -> t < total) pts in
          Buffer.add_string buf
            (U.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
               ~title:(Printf.sprintf "(%s-based monitor)" name)
               ~x_label:"time (s)" ~y_label:"R"
               [ { U.Chart.label = "forward progress"; points = pts } ]))
        o.M.timeline;
      Buffer.add_char buf '\n')
    configs results;
  { text = Buffer.contents buf; metrics = [] }

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let checkpoint_failure_rate_at ~device freq duration =
  (* Outage-prone supply plus the resonant attack: spurious wake-ups in
     the V_fail window race the checkpoint ISR against the brownout. *)
  let harvester =
    Gecko_energy.Harvester.square_wave ~period:0.08 ~duty:0.2
      (Gecko_energy.Harvester.thevenin ~v_source:3.3 ~r_source:150.)
  in
  let board =
    { (attack_board device Device.Use_adc) with Board.harvester }
  in
  M.checkpoint_failure_rate
    (Workbench.run_sense Core.Scheme.Nvp ~board ~duration
       ~opts:
         {
           M.default_options with
           schedule = Schedule.always (remote_signal freq);
         })

let table1 fidelity =
  let duration = sweep_duration fidelity *. 10. in
  let t =
    U.Table.create
      ~title:
        "Table I — EMI attack results on real-world energy-harvesting MCUs"
      ~header:
        [ "Model"; "Monitor"; "ADC-Rmin / freq"; "Comp-Rmin / freq";
          "ADC-Fmax / freq" ]
      ()
  in
  (* The device loop stays serial — [device_sweep] already fans each
     frequency grid out over the pool, and pool tasks must not nest.
     The checkpoint-failure runs depend on the per-device resonant
     frequency, so they form a second pooled stage. *)
  let per_device =
    List.map
      (fun d ->
        let _, fmin, rmin = device_sweep fidelity d Device.Use_adc in
        let comp_cell =
          if Device.has_comparator d then
            let _, f, r = device_sweep fidelity d Device.Use_comparator in
            Printf.sprintf "%.1e%% / %.0fMHz" (100. *. r) f
          else "N/A"
        in
        (d, fmin, rmin, comp_cell))
      Catalog.all
  in
  let fails =
    Workbench.pmap
      (fun (d, fmin, _, _) -> checkpoint_failure_rate_at ~device:d fmin duration)
      per_device
  in
  let metrics =
    List.concat
      (List.map2
         (fun (d, fmin, rmin, comp_cell) fail ->
           U.Table.add_row t
             [
               d.Device.model;
               (if Device.has_comparator d then "ADC & Comp." else "ADC");
               Printf.sprintf "%.1f%% / %.0fMHz" (100. *. rmin) fmin;
               comp_cell;
               Printf.sprintf "%.0f%% / %.0fMHz" (100. *. fail) fmin;
             ];
           let key = slug d.Device.model in
           [ (key ^ ".rmin", rmin); (key ^ ".fmin_mhz", fmin);
             (key ^ ".fmax", fail) ])
         per_device fails)
  in
  { text = U.Table.render t; metrics }

let table2 () =
  let t =
    U.Table.create
      ~title:"Table II — Prior EMI-mitigation solutions vs GECKO"
      ~header:
        [ "Prior work"; "Target"; "HW/SW"; "Energy eff."; "PF recovery";
          "Intermittent-ready" ]
      ()
  in
  List.iter (U.Table.add_row t)
    [
      [ "Ghost Talk"; "Microphones"; "Hybrid"; "Low"; "No"; "N/A" ];
      [ "Rocking Drones"; "Drones"; "Hybrid"; "Low"; "No"; "N/A" ];
      [ "Trick or Heat"; "Incubators"; "Hardware"; "Low"; "No"; "N/A" ];
      [ "SoK"; "Analog sensors"; "Hybrid"; "Low"; "No"; "N/A" ];
      [ "Detection of EMI"; "Temp. sensors, mics"; "Software"; "High"; "No"; "N/A" ];
      [ "Transduction Shield"; "Pressure sensors, mics"; "Hybrid"; "Low"; "No"; "N/A" ];
      [ "Detection of Weak EMI"; "IIoT sensors"; "Software"; "Low"; "No"; "N/A" ];
      [ "GECKO"; "Voltage monitor"; "Software"; "High"; "Yes"; "Applicable" ];
    ];
  { text = U.Table.render t; metrics = [] }

(* ------------------------------------------------------------------ *)
(* Figures 11, 12, 14; Table III                                       *)
(* ------------------------------------------------------------------ *)

(* [f] of every workload of the suite compiled by [compile], one pool
   task per workload, in [W.names] order. *)
let over_suite compile f =
  Workbench.pmap (fun name -> f (compile ((W.find name).W.build ()))) W.names

(* Each compiled workload linked and run on [board], with its program
   and [Meta]. *)
let suite_runs ?(options = M.default_options) ~board compile =
  over_suite compile (fun (p, meta) ->
      (M.run ~board ~image:(Gecko_isa.Link.link p) ~meta options, p, meta))

let cycles (o : M.outcome) =
  float_of_int (o.M.app_cycles + o.M.instrumentation_cycles)

(* Each run's [measure] over that of the same workload's [nvp] run. *)
let ratios ?(measure = cycles) ~nvp runs =
  List.map2 (fun (b, _, _) (o, _, _) -> measure o /. measure b) nvp runs

let total f runs =
  List.fold_left (fun acc (_, p, meta) -> acc + f p meta) 0 runs

(* One row per workload from one column of ratios per scheme. *)
let by_workload columns =
  List.mapi
    (fun i name -> (name, List.map (fun c -> List.nth c i) columns))
    W.names

let fig11_overhead_no_outage _fidelity =
  let board = Board.default () in
  let run scheme = suite_runs ~board (Core.Pipeline.compile scheme) in
  let nvp = run Core.Scheme.Nvp in
  let columns =
    List.map
      (fun s -> ratios ~nvp (run s))
      [ Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune; Core.Scheme.Gecko ]
  in
  let geo = List.map U.Stats.geomean columns in
  let pct i = 100. *. (List.nth geo i -. 1.) in
  {
    text =
      U.Chart.grouped_bars
        ~title:
          "Fig. 11 — Normalized execution time (no power outage; baseline = \
           NVP = 1.0)"
        ~group_labels:[ "Ratchet"; "GECKO w/o pruning"; "GECKO" ]
        (by_workload columns @ [ ("geomean", geo) ])
      ^ Printf.sprintf
          "\nAverage overhead vs NVP: Ratchet %+.0f%%, GECKO w/o pruning \
           %+.0f%%, GECKO %+.0f%%\n"
          (pct 0) (pct 1) (pct 2);
    metrics =
      List.combine
        [ "ratchet.geomean"; "gecko_noprune.geomean"; "gecko.geomean" ]
        geo;
  }

let fig12_checkpoint_reduction _fidelity =
  let t =
    U.Table.create
      ~title:
        "Fig. 12 — Checkpoint reduction (candidate stores vs emitted after \
         pruning)"
      ~header:[ "workload"; "candidates"; "emitted"; "removed"; "reduction" ]
      ()
  in
  let row name c k =
    U.Table.add_row t
      [
        name;
        string_of_int c;
        string_of_int k;
        string_of_int (c - k);
        U.Table.cell_pct (float_of_int (c - k) /. float_of_int (max 1 c));
      ]
  in
  let stats =
    over_suite (Core.Pipeline.compile Core.Scheme.Gecko) (fun (_, m) ->
        m.Core.Meta.stats)
  in
  List.iter2
    (fun name s -> row name s.Core.Meta.candidates s.Core.Meta.kept)
    W.names stats;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let c = sum (fun s -> s.Core.Meta.candidates) in
  let k = sum (fun s -> s.Core.Meta.kept) in
  U.Table.add_sep t;
  row "total" c k;
  {
    text = U.Table.render t;
    metrics =
      [
        ("candidates", float_of_int c);
        ("emitted", float_of_int k);
        ("reduction", float_of_int (c - k) /. float_of_int (max 1 c));
      ];
  }

let table3_checkpoint_stores _fidelity =
  let t =
    U.Table.create
      ~title:
        "Table III — Checkpoint stores generated by GECKO per application"
      ~header:[ "app"; "# ckpt stores"; "recovery blocks"; "avg slice len" ]
      ()
  in
  let per_app =
    over_suite (Core.Pipeline.compile Core.Scheme.Gecko) (fun (p, m) ->
        (Core.Pipeline.checkpoint_store_count p, m.Core.Meta.stats))
  in
  let avg = U.Stats.mean (List.map (fun (n, _) -> float_of_int n) per_app) in
  List.iter2
    (fun name (n, s) ->
      U.Table.add_row t
        [
          name;
          string_of_int n;
          string_of_int s.Core.Meta.recovery_blocks;
          (if s.Core.Meta.recovery_blocks = 0 then "-"
           else
             Printf.sprintf "%.1f"
               (float_of_int s.Core.Meta.recovery_instrs
               /. float_of_int s.Core.Meta.recovery_blocks));
        ])
    W.names per_app;
  U.Table.add_sep t;
  U.Table.add_row t [ "avg"; Printf.sprintf "%.0f" avg; ""; "" ];
  { text = U.Table.render t; metrics = [ ("avg_ckpt_stores", avg) ] }

let fig14_harvesting_overhead fidelity =
  let completions = match fidelity with Quick -> 2 | Full -> 5 in
  let harvester =
    Gecko_energy.Harvester.rf_ambient ~seed:99 ~mean_power:3.2e-3 ~flicker:0.5
  in
  let board =
    { (Board.default ~harvester ()) with Board.capacitance = 47e-6 }
  in
  let options =
    {
      M.default_options with
      limit = M.Completions completions;
      restart_on_halt = true;
      max_sim_time = 600.;
    }
  in
  let run scheme =
    suite_runs ~options ~board (Core.Pipeline.compile scheme)
  in
  let nvp = run Core.Scheme.Nvp in
  let columns =
    List.map
      (fun s -> ratios ~measure:(fun o -> o.M.sim_time) ~nvp (run s))
      [ Core.Scheme.Ratchet; Core.Scheme.Gecko ]
  in
  let geo = List.map U.Stats.geomean columns in
  {
    text =
      U.Chart.grouped_bars
        ~title:
          "Fig. 14 — Normalized execution time in an RF energy-harvesting \
           environment (Powercast-style source; baseline = NVP)"
        ~group_labels:[ "Ratchet"; "GECKO" ]
        (by_workload columns @ [ ("geomean", geo) ]);
    metrics = List.combine [ "ratchet.geomean"; "gecko.geomean" ] geo;
  }

(* ------------------------------------------------------------------ *)
(* Figure 13: attack scenarios                                         *)
(* ------------------------------------------------------------------ *)

let fig13_attack_scenarios fidelity =
  let minute = match fidelity with Quick -> 0.05 | Full -> 0.2 in
  let total_minutes = 50 in
  let scenarios =
    [ ("(a) no attack", []);
      ("(b) attack at 40min", [ 40 ]);
      ("(c) attack at 30min", [ 30 ]);
      ("(d) attacks at 20, 40min", [ 20; 40 ]);
      ("(e) attacks at 15, 30, 35min", [ 15; 30; 35 ]);
      ("(f) attacks at 10, 25, 40min", [ 10; 25; 40 ]) ]
  in
  let attack_len = 5 in
  let harvester =
    Gecko_energy.Harvester.square_wave ~period:(4. *. minute) ~duty:0.5
      (Gecko_energy.Harvester.thevenin ~v_source:3.3 ~r_source:120.)
  in
  let board =
    { (Board.attack_rig ~device:Catalog.msp430fr5994 ()) with
      Board.harvester }
  in
  let run scheme schedule =
    Workbench.run_sense scheme ~board
      ~duration:(float_of_int total_minutes *. minute)
      ~opts:{ M.default_options with schedule; timeline_bucket = Some minute }
  in
  let base_rate =
    float_of_int (run Core.Scheme.Nvp Schedule.empty).M.completions
    /. float_of_int total_minutes
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig. 13 — Attack detection and recovery (compressed timeline: 1 \
        paper-minute = %.2f s sim; attack = 27 MHz remote; 0%% = denial of \
        service; baseline = NVP without attack)\n\n"
       minute);
  let schemes = [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko ] in
  let schedule_of minutes =
    Schedule.make
      (List.map
         (fun m ->
           Schedule.window
             ~t_start:(float_of_int m *. minute)
             ~t_end:(float_of_int (m + attack_len) *. minute)
             (Attack.remote ~distance_m:0.3
                (Signal.make ~freq_mhz:27. ~power_dbm:35.)))
         minutes)
  in
  (* All scenario x scheme runs as one flat pool batch (18 tasks); the
     per-scenario charts are regrouped from the ordered results. *)
  let outs =
    Array.of_list
      (Workbench.pmap
         (fun (minutes, scheme) -> run scheme (schedule_of minutes))
         (List.concat_map
            (fun (_, minutes) -> List.map (fun s -> (minutes, s)) schemes)
            scenarios))
  in
  let nschemes = List.length schemes in
  let curve (o : M.outcome) =
    match o.M.timeline with
    | Some tl ->
        List.init total_minutes (fun i ->
            ( float_of_int i,
              Float.min 1.2
                (float_of_int tl.M.completions_per_bucket.(i)
                /. Float.max base_rate 1e-9) ))
    | None -> []
  in
  let metrics =
    List.concat
      (List.mapi
         (fun si (name, _minutes) ->
           let runs =
             List.mapi
               (fun ki s ->
                 (Core.Scheme.to_string s, outs.((si * nschemes) + ki)))
               schemes
           in
           Buffer.add_string buf
             (U.Chart.line_plot ~height:9 ~y_min:0. ~y_max:1.2 ~title:name
                ~x_label:"minute" ~y_label:"throughput"
                (List.map
                   (fun (label, o) -> { U.Chart.label; points = curve o })
                   runs));
           let ms =
             List.concat_map
               (fun (nm, (o : M.outcome)) ->
                 let throughput =
                   float_of_int o.M.completions
                   /. (base_rate *. float_of_int total_minutes)
                 in
                 Buffer.add_string buf
                   (Printf.sprintf
                      "  %-18s total throughput %5.1f%%  detections=%d \
                       reenables=%d\n"
                      nm (100. *. throughput) o.M.detections o.M.reenables);
                 let key = Printf.sprintf "%s.%s" (String.sub name 1 1) (slug nm) in
                 [
                   (key ^ ".throughput", throughput);
                   (key ^ ".detections", float_of_int o.M.detections);
                 ])
               runs
           in
           Buffer.add_char buf '\n';
           ms)
         scenarios)
  in
  { text = Buffer.contents buf; metrics }

(* ------------------------------------------------------------------ *)
(* Figure 15: capacitor sweep                                          *)
(* ------------------------------------------------------------------ *)

let fig15_capacitor_sweep fidelity =
  let completions = match fidelity with Quick -> 2 | Full -> 4 in
  let harvester =
    Gecko_energy.Harvester.thevenin ~v_source:3.25 ~r_source:40.
  in
  let sizes = [ 1e-3; 2e-3; 5e-3; 10e-3 ] in
  let t =
    U.Table.create
      ~title:
        "Fig. 15 — Total execution time vs capacitor size (equal buffered \
         energy; RC charging makes larger capacitors slower to refill)"
      ~header:[ "capacitor"; "NVP (s)"; "GECKO (s)"; "GECKO/NVP" ]
      ()
  in
  (* Capacitor size x scheme, one pooled task per cell. *)
  let cells =
    List.concat_map
      (fun c -> List.map (fun s -> (c, s)) [ Core.Scheme.Nvp; Core.Scheme.Gecko ])
      sizes
  in
  let times =
    Array.of_list
      (Workbench.pmap
         (fun (c, scheme) ->
           let board = Board.with_capacitance (Board.default ~harvester ()) c in
           let image, meta = Workbench.compiled scheme (Workbench.sense_app ()) in
           let o =
             M.run ~board ~image ~meta
               {
                 M.default_options with
                 limit = M.Completions completions;
                 restart_on_halt = true;
                 start_charged = false;
                 max_sim_time = 3600.;
               }
           in
           o.M.sim_time)
         cells)
  in
  let metrics =
    List.mapi
      (fun ci c ->
        let nvp = times.(2 * ci) and gecko = times.((2 * ci) + 1) in
        U.Table.add_row t
          [
            Printf.sprintf "%.0f mF" (c *. 1e3);
            Printf.sprintf "%.2f" nvp;
            Printf.sprintf "%.2f" gecko;
            Printf.sprintf "%.2f" (gecko /. nvp);
          ];
        (Printf.sprintf "cap_%.0fmf.gecko_over_nvp" (c *. 1e3), gecko /. nvp))
      sizes
  in
  { text = U.Table.render t; metrics }

(* Ablation: the two pruning mechanisms contribute independently. *)
let ablation _fidelity =
  let board = Board.default () in
  let t =
    U.Table.create
      ~title:
        "Ablation — GECKO overhead vs NVP with each pruning mechanism \
         disabled (geomean over the suite)"
      ~header:
        [ "configuration"; "overhead vs NVP"; "checkpoint stores (total)" ]
      ()
  in
  let nvp = suite_runs ~board (Core.Pipeline.compile Core.Scheme.Nvp) in
  let row (key, name, slices, reuse) =
    let runs =
      suite_runs ~board
        (Core.Pipeline.compile ~prune_slices:slices ~prune_reuse:reuse
           Core.Scheme.Gecko)
    in
    let ov = U.Stats.geomean (ratios ~nvp runs) -. 1. in
    let stores =
      total (fun p _ -> Core.Pipeline.checkpoint_store_count p) runs
    in
    U.Table.add_row t
      [ name; Printf.sprintf "%+.1f%%" (100. *. ov); string_of_int stores ];
    (key ^ ".overhead", ov)
  in
  let metrics =
    List.map row
      [
        ("full", "full GECKO (slices + reuse)", true, true);
        ("slices_only", "slices only", true, false);
        ("reuse_only", "reuse only", false, true);
        ("no_pruning", "no pruning", false, false);
      ]
  in
  { text = U.Table.render t; metrics }

(* Region-budget sensitivity: the WCET splitter's charge-cycle budget is
   a design knob — smaller budgets mean more regions, more commits, more
   checkpoint traffic. *)
let budget_sweep _fidelity =
  let board = Board.default () in
  let t =
    U.Table.create
      ~title:
        "Budget sweep — GECKO overhead vs the charge-cycle region budget \
         (geomean over the suite)"
      ~header:[ "budget (cycles)"; "overhead vs NVP"; "regions (total)" ]
      ()
  in
  let nvp = suite_runs ~board (Core.Pipeline.compile Core.Scheme.Nvp) in
  let row budget =
    let runs =
      suite_runs ~board
        (Core.Pipeline.compile ~budget_cycles:budget Core.Scheme.Gecko)
    in
    let ov = U.Stats.geomean (ratios ~nvp runs) -. 1. in
    let regions =
      total (fun _ m -> m.Core.Meta.stats.Core.Meta.boundaries) runs
    in
    U.Table.add_row t
      [
        string_of_int budget;
        Printf.sprintf "%+.1f%%" (100. *. ov);
        string_of_int regions;
      ];
    (Printf.sprintf "budget_%d.overhead" budget, ov)
  in
  let metrics = List.map row [ 80; 120; 250; 500; 2000 ] in
  { text = U.Table.render t; metrics }

(* Detection latency: how quickly GECKO notices an attack that begins
   mid-run. *)
let detection_latency fidelity =
  let onset = 0.2 in
  let duration = match fidelity with Quick -> 0.5 | Full -> 1.0 in
  let t =
    U.Table.create
      ~title:
        "Detection latency — time from attack onset to GECKO's reactive \
         detection (sense app, 27 MHz / 5 MHz resonances)"
      ~header:[ "monitor"; "attack"; "latency" ]
      ()
  in
  let configs =
    [ ("ADC", Device.Use_adc, 27.); ("comparator", Device.Use_comparator, 5.) ]
  in
  let outs =
    Workbench.pmap
      (fun (_label, choice, freq) ->
        Workbench.run_sense Core.Scheme.Gecko
          ~board:(attack_board Catalog.msp430fr5994 choice)
          ~duration
          ~opts:
            {
              M.default_options with
              schedule =
                Schedule.make
                  [
                    Schedule.window ~t_start:onset ~t_end:duration
                      (remote_signal freq);
                  ];
              record_events = true;
            })
      configs
  in
  let metrics =
    List.concat
      (List.map2
         (fun (label, _choice, freq) o ->
           let latency =
             List.find_map
               (fun (e : M.event) ->
                 match e.M.ev_kind with
                 | M.Ev_detection when e.M.ev_time >= onset ->
                     Some (e.M.ev_time -. onset)
                 | _ -> None)
               o.M.events
           in
           U.Table.add_row t
             [
               label;
               Printf.sprintf "%.0f MHz" freq;
               (match latency with
               | Some l -> Printf.sprintf "%.2f ms" (l *. 1e3)
               | None -> "not detected");
             ];
           Option.to_list
             (Option.map (fun l -> (slug label ^ ".latency_s", l)) latency))
         configs outs)
  in
  { text = U.Table.render t; metrics }

let artifacts =
  [
    ("fig4", fig4_dpi_sweep);
    ("fig5", fig5_remote_adc_sweep);
    ("fig7", fig7_remote_comparator_sweep);
    ("fig8", fig8_distance);
    ("fig9", fig9_realtime);
    ("table1", table1);
    ("table2", fun _ -> table2 ());
    ("fig11", fig11_overhead_no_outage);
    ("fig12", fig12_checkpoint_reduction);
    ("fig13", fig13_attack_scenarios);
    ("fig14", fig14_harvesting_overhead);
    ("fig15", fig15_capacitor_sweep);
    ("table3", table3_checkpoint_stores);
    ("ablation", ablation);
    ("budget-sweep", budget_sweep);
    ("detection-latency", detection_latency);
  ]
