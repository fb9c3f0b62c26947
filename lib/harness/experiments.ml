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
  let o = Workbench.run_nvp_progress ~board ~schedule ~duration in
  if baseline <= 0. then 0.
  else Float.min 1.0 (M.forward_progress o /. baseline)

let baseline_rate ~board duration =
  M.forward_progress
    (Workbench.run_nvp_progress ~board ~schedule:Schedule.empty ~duration)

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

(* Minimum rate over the sweep; near-ties resolve to the strongest
   coupling (the resonance peak), matching how Table I reports the
   attack frequency. *)
let min_point ?profile points =
  let gain f =
    match profile with
    | None -> 0.
    | Some p -> Gecko_emi.Coupling.gain p ~freq_hz:(f *. 1e6)
  in
  List.fold_left
    (fun (bf, br) (f, r) ->
      if r < br -. 1e-3 then (f, r)
      else if Float.abs (r -. br) <= 1e-3 && gain f > gain bf then (f, br)
      else (bf, br))
    (0., infinity) points

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

let remote_signal ?(power_dbm = 20.) ?(distance_m = 0.1) f =
  Attack.remote ~distance_m (Signal.make ~freq_mhz:f ~power_dbm)

let fig5_remote_adc_sweep fidelity =
  let buf = Buffer.create 4096 in
  let ms = ref [] in
  Buffer.add_string buf
    "Fig. 5 — Remote attack on ADC-based voltage monitors (all nine \
     devices, 20 dBm at the reference distance)\n\n";
  List.iter
    (fun d ->
      let board = attack_board d Device.Use_adc in
      let points = sweep ~board ~fidelity ~make_attack:remote_signal in
      let fmin, rmin = min_point ~profile:d.Device.adc_profile points in
      let key = slug d.Device.model in
      ms := (key ^ ".fmin_mhz", fmin) :: (key ^ ".rmin", rmin) :: !ms;
      Buffer.add_string buf
        (U.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
           ~title:
             (Printf.sprintf "%s   (min R = %.2f%% at %.0f MHz)"
                d.Device.model (100. *. rmin) fmin)
           ~x_label:"MHz" ~y_label:"R"
           [ { U.Chart.label = "remote"; points } ]);
      Buffer.add_char buf '\n')
    Catalog.all;
  { text = Buffer.contents buf; metrics = List.rev !ms }

let fig7_remote_comparator_sweep fidelity =
  let buf = Buffer.create 4096 in
  let ms = ref [] in
  Buffer.add_string buf
    "Fig. 7 — Remote attack on comparator-based voltage monitors\n\n";
  List.iter
    (fun d ->
      if Device.has_comparator d then begin
        let board = attack_board d Device.Use_comparator in
        let points = sweep ~board ~fidelity ~make_attack:remote_signal in
        let fmin, rmin =
          match d.Device.comp_profile with
          | Some p -> min_point ~profile:p points
          | None -> min_point points
        in
        let key = slug d.Device.model in
        ms :=
          (key ^ ".comp_fmin_mhz", fmin) :: (key ^ ".comp_rmin", rmin) :: !ms;
        Buffer.add_string buf
          (U.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
             ~title:
               (Printf.sprintf "%s comparator   (min R = %.4f%% at %.0f MHz)"
                  d.Device.model (100. *. rmin) fmin)
             ~x_label:"MHz" ~y_label:"R"
             [ { U.Chart.label = "remote"; points } ]);
        Buffer.add_char buf '\n'
      end)
    Catalog.all;
  { text = Buffer.contents buf; metrics = List.rev !ms }

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
  let dos_cells = ref 0 in
  List.iteri
    (fun pi p ->
      let row =
        List.mapi
          (fun di _dist ->
            let r = rates.((pi * ncols) + di) in
            if r < 0.5 then incr dos_cells;
            Printf.sprintf "%.0f%%%s" (100. *. r) (if r < 0.5 then " DoS" else ""))
          distances
      in
      U.Table.add_row t (Printf.sprintf "%.0f dBm" p :: row))
    powers;
  {
    text = U.Table.render t;
    metrics =
      [
        ("dos_cells", float_of_int !dos_cells);
        ("cells", float_of_int (List.length distances * List.length powers));
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
        let schedule = schedule_for choice in
        let board = attack_board Catalog.msp430fr5994 choice in
        let image, meta =
          Workbench.compiled Core.Scheme.Nvp (Workbench.sense_app ())
        in
        let o =
          M.run ~board ~image ~meta
            {
              M.default_options with
              schedule;
              limit = M.Sim_time total;
              restart_on_halt = true;
              timeline_bucket = Some (seg /. 4.);
              max_sim_time = total +. 1.;
            }
        in
        let base =
          M.forward_progress
            (Workbench.run_nvp_progress ~board ~schedule:Schedule.empty
               ~duration:(seg *. 2.))
        in
        (o, base))
      configs
  in
  List.iter2
    (fun (name, _choice) (o, base) ->
      (match o.M.timeline with
      | Some tl ->
          let pts =
            Array.to_list
              (Array.mapi
                 (fun i v ->
                   let r = v /. tl.M.bucket /. Float.max base 1e-9 in
                   (float_of_int i *. tl.M.bucket, Float.min 1.0 r))
                 tl.M.app_seconds_per_bucket)
          in
          let pts =
            List.filter (fun (t, _) -> t < total) pts
          in
          Buffer.add_string buf
            (U.Chart.line_plot ~height:8 ~y_min:0. ~y_max:1.
               ~title:(Printf.sprintf "(%s-based monitor)" name)
               ~x_label:"time (s)" ~y_label:"R"
               [ { U.Chart.label = "forward progress"; points = pts } ])
      | None -> ());
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
  let image, meta = Workbench.compiled Core.Scheme.Nvp (Workbench.sense_app ()) in
  let o =
    M.run ~board ~image ~meta
      {
        M.default_options with
        schedule = Schedule.always (remote_signal freq);
        limit = M.Sim_time duration;
        restart_on_halt = true;
        max_sim_time = duration +. 1.;
      }
  in
  M.checkpoint_failure_rate o

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
  let ms = ref [] in
  (* The device loop stays serial — [sweep] already fans each frequency
     grid out over the pool, and pool tasks must not nest.  The
     checkpoint-failure runs depend on the per-device resonant
     frequency, so they form a second pooled stage. *)
  let per_device =
    List.map
      (fun d ->
        let adc_points =
          sweep ~board:(attack_board d Device.Use_adc) ~fidelity
            ~make_attack:remote_signal
        in
        let fmin, rmin = min_point ~profile:d.Device.adc_profile adc_points in
        let comp_cell =
          if Device.has_comparator d then begin
            let pts =
              sweep ~board:(attack_board d Device.Use_comparator) ~fidelity
                ~make_attack:remote_signal
            in
            let f, r =
              match d.Device.comp_profile with
              | Some p -> min_point ~profile:p pts
              | None -> min_point pts
            in
            Printf.sprintf "%.1e%% / %.0fMHz" (100. *. r) f
          end
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
  List.iter2
    (fun (d, fmin, rmin, comp_cell) fail ->
      let key = slug d.Device.model in
      ms :=
        (key ^ ".fmax", fail)
        :: (key ^ ".fmin_mhz", fmin)
        :: (key ^ ".rmin", rmin)
        :: !ms;
      U.Table.add_row t
        [
          d.Device.model;
          (if Device.has_comparator d then "ADC & Comp." else "ADC");
          Printf.sprintf "%.1f%% / %.0fMHz" (100. *. rmin) fmin;
          comp_cell;
          Printf.sprintf "%.0f%% / %.0fMHz" (100. *. fail) fmin;
        ])
    per_device fails;
  { text = U.Table.render t; metrics = List.rev !ms }

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

let workload_cycles scheme name ~board ~options =
  let w = W.find name in
  let image, meta = Workbench.compiled scheme (w.W.build ()) in
  let o = M.run ~board ~image ~meta options in
  (o, image, meta)

let fig11_overhead_no_outage _fidelity =
  let board = Board.default () in
  (* One pool task per workload; each task runs its four scheme variants
     back to back so the NVP baseline stays local to the closure. *)
  let rows =
    Workbench.pmap
      (fun name ->
        let cycles scheme =
          let o, _, _ = workload_cycles scheme name ~board ~options:M.default_options in
          float_of_int (o.M.app_cycles + o.M.instrumentation_cycles)
        in
        let nvp = cycles Core.Scheme.Nvp in
        let vals =
          List.map
            (fun s -> cycles s /. nvp)
            [ Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune; Core.Scheme.Gecko ]
        in
        (name, vals))
      W.names
  in
  let avgs = List.map snd rows in
  let geo i =
    U.Stats.geomean (List.map (fun vs -> List.nth vs i) avgs)
  in
  let chart =
    U.Chart.grouped_bars
      ~title:
        "Fig. 11 — Normalized execution time (no power outage; baseline = \
         NVP = 1.0)"
      ~group_labels:[ "Ratchet"; "GECKO w/o pruning"; "GECKO" ]
      (rows @ [ ("geomean", [ geo 0; geo 1; geo 2 ]) ])
  in
  {
    text =
      chart
      ^ Printf.sprintf
          "\nAverage overhead vs NVP: Ratchet %+.0f%%, GECKO w/o pruning \
           %+.0f%%, GECKO %+.0f%%\n"
          (100. *. (geo 0 -. 1.))
          (100. *. (geo 1 -. 1.))
          (100. *. (geo 2 -. 1.));
    metrics =
      [
        ("ratchet.geomean", geo 0);
        ("gecko_noprune.geomean", geo 1);
        ("gecko.geomean", geo 2);
      ];
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
  let stats =
    Workbench.pmap
      (fun name ->
        let w = W.find name in
        let _, meta = Workbench.compiled Core.Scheme.Gecko (w.W.build ()) in
        meta.Core.Meta.stats)
      W.names
  in
  let tot_c = ref 0 and tot_k = ref 0 in
  List.iter2
    (fun name s ->
      tot_c := !tot_c + s.Core.Meta.candidates;
      tot_k := !tot_k + s.Core.Meta.kept;
      U.Table.add_row t
        [
          name;
          string_of_int s.Core.Meta.candidates;
          string_of_int s.Core.Meta.kept;
          string_of_int (s.Core.Meta.candidates - s.Core.Meta.kept);
          U.Table.cell_pct
            (float_of_int (s.Core.Meta.candidates - s.Core.Meta.kept)
            /. float_of_int (max 1 s.Core.Meta.candidates));
        ])
    W.names stats;
  U.Table.add_sep t;
  U.Table.add_row t
    [
      "total";
      string_of_int !tot_c;
      string_of_int !tot_k;
      string_of_int (!tot_c - !tot_k);
      U.Table.cell_pct
        (float_of_int (!tot_c - !tot_k) /. float_of_int (max 1 !tot_c));
    ];
  {
    text = U.Table.render t;
    metrics =
      [
        ("candidates", float_of_int !tot_c);
        ("emitted", float_of_int !tot_k);
        ( "reduction",
          float_of_int (!tot_c - !tot_k) /. float_of_int (max 1 !tot_c) );
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
    Workbench.pmap
      (fun name ->
        let w = W.find name in
        let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (w.W.build ()) in
        (Core.Pipeline.checkpoint_store_count p, meta.Core.Meta.stats))
      W.names
  in
  let counts = ref [] in
  List.iter2
    (fun name (n, s) ->
      counts := float_of_int n :: !counts;
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
  U.Table.add_row t
    [ "avg"; Printf.sprintf "%.0f" (U.Stats.mean !counts); ""; "" ];
  {
    text = U.Table.render t;
    metrics = [ ("avg_ckpt_stores", U.Stats.mean !counts) ];
  }

let fig14_harvesting_overhead fidelity =
  let completions = match fidelity with Quick -> 2 | Full -> 5 in
  let harvester =
    Gecko_energy.Harvester.rf_ambient ~seed:99 ~mean_power:3.2e-3 ~flicker:0.5
  in
  let board =
    { (Board.default ~harvester ()) with Board.capacitance = 47e-6 }
  in
  let opts =
    {
      M.default_options with
      limit = M.Completions completions;
      restart_on_halt = true;
      max_sim_time = 600.;
    }
  in
  let rows =
    Workbench.pmap
      (fun name ->
        let time scheme =
          let o, _, _ = workload_cycles scheme name ~board ~options:opts in
          o.M.sim_time
        in
        let nvp = time Core.Scheme.Nvp in
        ( name,
          List.map
            (fun s -> time s /. nvp)
            [ Core.Scheme.Ratchet; Core.Scheme.Gecko ] ))
      W.names
  in
  let geo i = U.Stats.geomean (List.map (fun (_, vs) -> List.nth vs i) rows) in
  {
    text =
      U.Chart.grouped_bars
        ~title:
          "Fig. 14 — Normalized execution time in an RF energy-harvesting \
           environment (Powercast-style source; baseline = NVP)"
        ~group_labels:[ "Ratchet"; "GECKO" ]
        (rows @ [ ("geomean", [ geo 0; geo 1 ]) ]);
    metrics = [ ("ratchet.geomean", geo 0); ("gecko.geomean", geo 1) ];
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
    let image, meta = Workbench.compiled scheme (Workbench.sense_app ()) in
    let total = float_of_int total_minutes *. minute in
    M.run ~board ~image ~meta
      {
        M.default_options with
        schedule;
        limit = M.Sim_time total;
        restart_on_halt = true;
        timeline_bucket = Some minute;
        max_sim_time = total +. 1.;
      }
  in
  let base_o = run Core.Scheme.Nvp Schedule.empty in
  let base_rate =
    float_of_int base_o.M.completions /. float_of_int total_minutes
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig. 13 — Attack detection and recovery (compressed timeline: 1 \
        paper-minute = %.2f s sim; attack = 27 MHz remote; 0%% = denial of \
        service; baseline = NVP without attack)\n\n"
       minute);
  let ms = ref [] in
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
  List.iteri
    (fun si (name, _minutes) ->
      let scen = String.sub name 1 1 in
      let series =
        List.mapi
          (fun ki scheme ->
            let o = outs.((si * nschemes) + ki) in
            let pts =
              match o.M.timeline with
              | Some tl ->
                  List.init total_minutes (fun i ->
                      ( float_of_int i,
                        Float.min 1.2
                          (float_of_int tl.M.completions_per_bucket.(i)
                          /. Float.max base_rate 1e-9) ))
              | None -> []
            in
            ( Core.Scheme.to_string scheme,
              o,
              { U.Chart.label = Core.Scheme.to_string scheme; points = pts } ))
          [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko ]
      in
      Buffer.add_string buf
        (U.Chart.line_plot ~height:9 ~y_min:0. ~y_max:1.2 ~title:name
           ~x_label:"minute" ~y_label:"throughput"
           (List.map (fun (_, _, s) -> s) series));
      List.iter
        (fun (nm, (o : M.outcome), _) ->
          let throughput =
            float_of_int o.M.completions
            /. (base_rate *. float_of_int total_minutes)
          in
          let key = Printf.sprintf "%s.%s" scen (slug nm) in
          ms :=
            (key ^ ".detections", float_of_int o.M.detections)
            :: (key ^ ".throughput", throughput)
            :: !ms;
          Buffer.add_string buf
            (Printf.sprintf
               "  %-18s total throughput %5.1f%%  detections=%d reenables=%d\n"
               nm (100. *. throughput) o.M.detections o.M.reenables))
        series;
      Buffer.add_char buf '\n')
    scenarios;
  { text = Buffer.contents buf; metrics = List.rev !ms }

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
  let ms = ref [] in
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
  List.iteri
    (fun ci c ->
      let nvp = times.(2 * ci) and gecko = times.((2 * ci) + 1) in
      ms :=
        (Printf.sprintf "cap_%.0fmf.gecko_over_nvp" (c *. 1e3), gecko /. nvp)
        :: !ms;
      U.Table.add_row t
        [
          Printf.sprintf "%.0f mF" (c *. 1e3);
          Printf.sprintf "%.2f" nvp;
          Printf.sprintf "%.2f" gecko;
          Printf.sprintf "%.2f" (gecko /. nvp);
        ])
    sizes;
  { text = U.Table.render t; metrics = List.rev !ms }

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
  let nvp_cycles =
    Workbench.pmap
      (fun wname ->
        let w = W.find wname in
        let image, meta = Workbench.compiled Core.Scheme.Nvp (w.W.build ()) in
        let o = M.run ~board ~image ~meta M.default_options in
        (wname, float_of_int (o.M.app_cycles + o.M.instrumentation_cycles)))
      W.names
  in
  let ms = ref [] in
  let row name ~slices ~reuse =
    let per_wl =
      Workbench.pmap
        (fun (wname, nvp) ->
          let w = W.find wname in
          let p, meta =
            Core.Pipeline.compile ~prune_slices:slices ~prune_reuse:reuse
              Core.Scheme.Gecko (w.W.build ())
          in
          let image = Gecko_isa.Link.link p in
          let o = M.run ~board ~image ~meta M.default_options in
          let ov =
            float_of_int (o.M.app_cycles + o.M.instrumentation_cycles) /. nvp
          in
          (ov, Core.Pipeline.checkpoint_store_count p))
        nvp_cycles
    in
    let overheads = List.map fst per_wl in
    let stores = List.fold_left (fun acc (_, s) -> acc + s) 0 per_wl in
    let ov = U.Stats.geomean overheads -. 1. in
    U.Table.add_row t
      [
        name;
        Printf.sprintf "%+.1f%%" (100. *. ov);
        string_of_int stores;
      ];
    ov
  in
  let full = row "full GECKO (slices + reuse)" ~slices:true ~reuse:true in
  let slices = row "slices only" ~slices:true ~reuse:false in
  let reuse = row "reuse only" ~slices:false ~reuse:true in
  let none = row "no pruning" ~slices:false ~reuse:false in
  ms :=
    [
      ("full.overhead", full);
      ("slices_only.overhead", slices);
      ("reuse_only.overhead", reuse);
      ("no_pruning.overhead", none);
    ];
  { text = U.Table.render t; metrics = !ms }

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
  let ms = ref [] in
  List.iter
    (fun budget ->
      let per_wl =
        Workbench.pmap
          (fun wname ->
            let w = W.find wname in
            let nvp_image, nvp_meta =
              Workbench.compiled Core.Scheme.Nvp (w.W.build ())
            in
            let nvp_o = M.run ~board ~image:nvp_image ~meta:nvp_meta M.default_options in
            let p, meta =
              Core.Pipeline.compile ~budget_cycles:budget Core.Scheme.Gecko
                (w.W.build ())
            in
            let o =
              M.run ~board ~image:(Gecko_isa.Link.link p) ~meta M.default_options
            in
            let ov =
              float_of_int (o.M.app_cycles + o.M.instrumentation_cycles)
              /. float_of_int (nvp_o.M.app_cycles + nvp_o.M.instrumentation_cycles)
            in
            (ov, meta.Core.Meta.stats.Core.Meta.boundaries))
          W.names
      in
      let overheads = List.map fst per_wl in
      let regions = List.fold_left (fun acc (_, r) -> acc + r) 0 per_wl in
      let ov = U.Stats.geomean overheads -. 1. in
      ms := (Printf.sprintf "budget_%d.overhead" budget, ov) :: !ms;
      U.Table.add_row t
        [
          string_of_int budget;
          Printf.sprintf "%+.1f%%" (100. *. ov);
          string_of_int regions;
        ])
    [ 80; 120; 250; 500; 2000 ];
  { text = U.Table.render t; metrics = List.rev !ms }

(* Soundness overhead: what may-alias soundness costs over the seed's
   optimistic (unsound) compiler, per workload, under no-attack constant
   power.  Two pipeline modes run against the same NVP baseline:

   - [Legacy]: the seed's optimistic baseline (can be unsound);
   - [Speculative]: the sound pipeline — syntactic may-alias region
     cuts, optimistic checkpoint-slot reuse and the unprovable window
     clobbers guarded at runtime.

   The HEADLINE metric ([<wl>.soundness_overhead_pct]) is the residual
   cost of Speculative over Legacy, in percentage points.  A negative
   value means the sound build ran FASTER than the optimistic one
   (boundary placement is budget-driven, so more WAR cuts can move WCET
   split points and land a luckier checkpoint layout); negatives are
   flagged and counted ([negative_overheads]) rather than
   celebrated. *)
let soundness_overhead _fidelity =
  let board = Board.default () in
  let t =
    U.Table.create
      ~title:
        "Soundness overhead — GECKO overhead vs NVP per pipeline mode; \
         headline = speculative vs the seed's optimistic baseline (no \
         power outage)"
      ~header:
        [ "workload"; "legacy"; "speculative"; "headline" ]
      ()
  in
  let rows =
    Workbench.pmap
      (fun wname ->
        let w = W.find wname in
        let nvp_image, nvp_meta =
          Workbench.compiled Core.Scheme.Nvp (w.W.build ())
        in
        let nvp_o = M.run ~board ~image:nvp_image ~meta:nvp_meta M.default_options in
        let nvp =
          float_of_int (nvp_o.M.app_cycles + nvp_o.M.instrumentation_cycles)
        in
        let overhead_pct mode =
          let image, meta =
            Workbench.compiled ~mode Core.Scheme.Gecko (w.W.build ())
          in
          let o = M.run ~board ~image ~meta M.default_options in
          100.
          *. ((float_of_int (o.M.app_cycles + o.M.instrumentation_cycles)
               /. nvp)
             -. 1.)
        in
        ( wname,
          overhead_pct Core.Mode.Legacy,
          overhead_pct Core.Mode.Speculative ))
      W.names
  in
  (* Overhead-over-legacy in percentage points, and the matching
     slowdown ratio for geomeans. *)
  let pp over legacy = over -. legacy in
  let ratio over legacy = (1. +. (over /. 100.)) /. (1. +. (legacy /. 100.)) in
  let ms = ref [] in
  let negatives = ref 0 in
  List.iter
    (fun (wname, legacy, spec) ->
      let headline = pp spec legacy in
      if headline < 0. then incr negatives;
      ms := (wname ^ ".soundness_overhead_pct", headline) :: !ms;
      U.Table.add_row t
        [
          wname;
          Printf.sprintf "%+.1f%%" legacy;
          Printf.sprintf "%+.1f%%" spec;
          Printf.sprintf "%+.1f pp%s" headline
            (if headline < 0. then " (!)" else "");
        ])
    rows;
  let geo_spec =
    100.
    *. (U.Stats.geomean
          (List.map (fun (_, legacy, spec) -> ratio spec legacy) rows)
       -. 1.)
  in
  ms :=
    ("negative_overheads", float_of_int !negatives)
    :: ("geomean.soundness_overhead_pct", geo_spec)
    :: !ms;
  {
    text =
      U.Table.render t
      ^ Printf.sprintf
          "Geomean slowdown over optimistic: speculative %+.1f%% \
           (headline)\n"
          geo_spec
      ^ (if !negatives > 0 then
           Printf.sprintf
             "(!) %d workload(s) ran FASTER sound than optimistic — a \
              budget-driven boundary-placement artifact, see \
              DESIGN.md.\n"
             !negatives
         else "");
    metrics = List.rev !ms;
  }

(* Detection latency: how quickly GECKO notices an attack that begins
   mid-run. *)
let detection_latency fidelity =
  let onset = 0.2 in
  let duration = match fidelity with Quick -> 0.5 | Full -> 1.0 in
  let image, meta = Workbench.compiled Core.Scheme.Gecko (Workbench.sense_app ()) in
  let t =
    U.Table.create
      ~title:
        "Detection latency — time from attack onset to GECKO's reactive \
         detection (sense app, 27 MHz / 5 MHz resonances)"
      ~header:[ "monitor"; "attack"; "latency" ]
      ()
  in
  let ms = ref [] in
  let configs =
    [ ("ADC", Device.Use_adc, 27.); ("comparator", Device.Use_comparator, 5.) ]
  in
  let outs =
    Workbench.pmap
      (fun (_label, choice, freq) ->
        let board = attack_board Catalog.msp430fr5994 choice in
        M.run ~board ~image ~meta
          {
            M.default_options with
            schedule =
              Schedule.make
                [
                  Schedule.window ~t_start:onset ~t_end:duration
                    (remote_signal freq);
                ];
            limit = M.Sim_time duration;
            restart_on_halt = true;
            record_events = true;
            max_sim_time = duration +. 1.;
          })
      configs
  in
  List.iter2
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
      (match latency with
      | Some l -> ms := (slug label ^ ".latency_s", l) :: !ms
      | None -> ());
      U.Table.add_row t
        [
          label;
          Printf.sprintf "%.0f MHz" freq;
          (match latency with
          | Some l -> Printf.sprintf "%.2f ms" (l *. 1e3)
          | None -> "not detected");
        ])
    configs outs;
  { text = U.Table.render t; metrics = List.rev !ms }

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
    ("soundness-overhead", soundness_overhead);
    ("detection-latency", detection_latency);
  ]

let all_artifacts fidelity =
  List.map (fun (name, f) -> (name, f fidelity)) artifacts

let all fidelity =
  List.map (fun (name, a) -> (name, a.text)) (all_artifacts fidelity)
