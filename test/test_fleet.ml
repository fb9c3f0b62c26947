(* The fleet simulator: merge laws for the streaming aggregates, shard
   reduction vs the sequential fold (jobs=1 vs jobs=4 byte-equality),
   snapshot/resume equivalence, spec/aggregate JSON round-trips, and the
   heartbeat.gasm assembly round-trip.

   Float caveat: float addition is commutative but only associative up to
   rounding, so the associativity properties draw from dyadic rationals
   (multiples of 1/16 with bounded magnitude) where every sum is exact. *)

module Fleet = Gecko_fleet
module Acc = Gecko_util.Stats.Acc
module Metrics = Gecko_obs.Metrics
module Json = Gecko_obs.Json
module Workbench = Gecko_harness.Workbench
module Asm = Gecko_isa.Asm

(* --- generators ------------------------------------------------------ *)

let dyadic_gen =
  QCheck.Gen.map (fun k -> float_of_int k /. 16.) (QCheck.Gen.int_range (-65536) 65536)

let dyadic_list =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(list_size (int_bound 24) dyadic_gen)

let acc_equal (a : Acc.t) (b : Acc.t) =
  a.Acc.n = b.Acc.n
  && Float.equal a.Acc.sum b.Acc.sum
  && Float.equal a.Acc.sumsq b.Acc.sumsq
  && Float.equal a.Acc.min_v b.Acc.min_v
  && Float.equal a.Acc.max_v b.Acc.max_v

(* --- Stats.Acc merge laws -------------------------------------------- *)

let prop_acc_identity =
  QCheck.Test.make ~count:100 ~name:"Acc: empty is a two-sided identity"
    dyadic_list (fun xs ->
      let a = Acc.of_list xs in
      acc_equal (Acc.merge Acc.empty a) a && acc_equal (Acc.merge a Acc.empty) a)

let prop_acc_commutative =
  QCheck.Test.make ~count:100 ~name:"Acc: merge is commutative"
    (QCheck.pair dyadic_list dyadic_list) (fun (xs, ys) ->
      let a = Acc.of_list xs and b = Acc.of_list ys in
      acc_equal (Acc.merge a b) (Acc.merge b a))

let prop_acc_associative =
  QCheck.Test.make ~count:100 ~name:"Acc: merge is associative (dyadic inputs)"
    (QCheck.triple dyadic_list dyadic_list dyadic_list) (fun (xs, ys, zs) ->
      let a = Acc.of_list xs and b = Acc.of_list ys and c = Acc.of_list zs in
      acc_equal (Acc.merge (Acc.merge a b) c) (Acc.merge a (Acc.merge b c)))

let prop_acc_merge_is_concat =
  QCheck.Test.make ~count:100 ~name:"Acc: merge of splits equals fold of whole"
    (QCheck.pair dyadic_list dyadic_list) (fun (xs, ys) ->
      acc_equal
        (Acc.merge (Acc.of_list xs) (Acc.of_list ys))
        (Acc.of_list (xs @ ys)))

(* --- Metrics merge laws ---------------------------------------------- *)

(* A registry is described by a small op list; [build] replays it into a
   fresh registry.  Names come from a tiny fixed pool so merges overlap. *)
type op = Incr of int * int | Set_gauge of int * float | Observe of int * float

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i by -> Incr (i, by)) (int_bound 2) (int_range 1 50);
        map2 (fun i v -> Set_gauge (i, v)) (int_bound 2) dyadic_gen;
        map2
          (fun i v -> Observe (i, Float.abs v +. 0.0625))
          (int_bound 2) dyadic_gen;
      ])

let ops_arb =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_bound 16) op_gen)

let build ops =
  let r = Metrics.create () in
  List.iter
    (function
      | Incr (i, by) -> Metrics.incr ~by (Metrics.counter r (Printf.sprintf "c%d" i))
      | Set_gauge (i, v) -> Metrics.set_gauge (Metrics.gauge r (Printf.sprintf "g%d" i)) v
      | Observe (i, v) -> Metrics.observe (Metrics.histogram r (Printf.sprintf "h%d" i)) v)
    ops;
  r

let persist r = Json.to_string (Metrics.to_persist r)

let merged rs =
  let dst = Metrics.create () in
  List.iter (fun r -> Metrics.merge_into dst r) rs;
  dst

let prop_metrics_identity =
  QCheck.Test.make ~count:80 ~name:"Metrics: empty registry is an identity"
    ops_arb (fun ops ->
      let a = build ops in
      persist (merged [ Metrics.create (); a ]) = persist a
      && persist (merged [ a; Metrics.create () ]) = persist a)

let prop_metrics_commutative =
  QCheck.Test.make ~count:80 ~name:"Metrics: merge is commutative"
    (QCheck.pair ops_arb ops_arb) (fun (xs, ys) ->
      persist (merged [ build xs; build ys ])
      = persist (merged [ build ys; build xs ]))

let prop_metrics_associative =
  QCheck.Test.make ~count:80
    ~name:"Metrics: merge is associative (dyadic inputs)"
    (QCheck.triple ops_arb ops_arb ops_arb) (fun (xs, ys, zs) ->
      let left = merged [ merged [ build xs; build ys ]; build zs ] in
      let right = merged [ build xs; merged [ build ys; build zs ] ] in
      persist left = persist right)

let prop_metrics_persist_roundtrip =
  QCheck.Test.make ~count:80 ~name:"Metrics: to_persist/of_persist is exact"
    ops_arb (fun ops ->
      let r = build ops in
      persist (Metrics.of_persist (Metrics.to_persist r)) = persist r)

let prop_metrics_quantile_monotone =
  (* Quantiles of a merged-then-persisted registry must be monotone in p
     — the estimator walks cumulative bucket counts, so any violation
     means the merge or the round-trip corrupted a count. *)
  QCheck.Test.make ~count:80
    ~name:"Metrics: quantile is monotone in p after merge_into + persist"
    (QCheck.pair ops_arb ops_arb) (fun (xs, ys) ->
      let r =
        Metrics.of_persist
          (Metrics.to_persist (merged [ build xs; build ys ]))
      in
      let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      List.for_all
        (fun i ->
          let h = Metrics.histogram r (Printf.sprintf "h%d" i) in
          let qs = List.map (Metrics.quantile h) ps in
          let rec mono = function
            | a :: (b :: _ as rest) -> a <= b && mono rest
            | _ -> true
          in
          mono qs)
        [ 0; 1; 2 ])

module Telemetry = Fleet.Telemetry

(* --- fleet campaign -------------------------------------------------- *)

let small_spec =
  (* Small enough for the test suite, busy enough to exercise attacks. *)
  Fleet.Spec.make ~devices:64 ~attackers:2 ~duration:0.02 ~shard_size:5
    ~seed:7 ()

let report_string spec =
  match (Fleet.Campaign.run spec).Fleet.Campaign.report with
  | Some r -> Json.to_string (Fleet.Report.to_json r)
  | None -> Alcotest.fail "campaign did not complete"

let test_jobs_byte_equality () =
  let saved = Workbench.jobs () in
  Fun.protect
    ~finally:(fun () -> Workbench.set_jobs saved)
    (fun () ->
      Workbench.set_jobs 1;
      let serial = report_string small_spec in
      Workbench.set_jobs 4;
      let parallel = report_string small_spec in
      Alcotest.(check string)
        "jobs=1 and jobs=4 merged reports are byte-identical" serial parallel)

(* A campaign's devices fork shared unattacked prefixes, so some but not
   all of their instructions are served from the prefix table: shards
   run without it inherit nothing, and the share drops below 0. *)
let test_campaign_shares_prefixes () =
  let share = Fleet.Campaign.prefix_share (Fleet.Campaign.run small_spec) in
  Alcotest.(check bool)
    (Printf.sprintf "prefix share %g lies in (0, 1)" share)
    true
    (0. < share && share < 1.)

let test_resume_equals_uninterrupted () =
  let spec =
    Fleet.Spec.make ~devices:24 ~attackers:1 ~duration:0.02 ~shard_size:4
      ~seed:11 ()
  in
  let uninterrupted = report_string spec in
  let snap = Filename.temp_file "gecko_fleet" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let partial =
        Fleet.Campaign.run ~snapshot_path:snap ~max_shards:2 spec
      in
      Alcotest.(check bool)
        "interrupted campaign yields no report"
        true (partial.Fleet.Campaign.report = None);
      let resume = Fleet.Campaign.load_snapshot snap in
      Alcotest.(check bool)
        "snapshot holds only the completed shards" true
        (List.length (snd resume) = 2);
      let resumed = Fleet.Campaign.run ~resume spec in
      Alcotest.(check int)
        "resume takes the snapshotted shards as done" 2
        resumed.Fleet.Campaign.resumed_shards;
      Alcotest.(check int)
        "resume re-runs only the missing devices"
        (24 - partial.Fleet.Campaign.devices_run)
        resumed.Fleet.Campaign.devices_run;
      match resumed.Fleet.Campaign.report with
      | None -> Alcotest.fail "resumed campaign did not complete"
      | Some r ->
          Alcotest.(check string)
            "resumed report equals the uninterrupted one" uninterrupted
            (Json.to_string (Fleet.Report.to_json r)))

let telemetry_stream spec path =
  let config =
    { Telemetry.default_config with Telemetry.tel_path = Some path }
  in
  ignore (Fleet.Campaign.run ~telemetry:config spec);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (* Drop the one wall-clock record; everything else must be sim-pure. *)
  String.split_on_char '\n' contents
  |> List.filter (fun l ->
         not (String.starts_with ~prefix:"{\"nondeterministic\":" l))
  |> String.concat "\n"

let test_telemetry_jobs_byte_equality () =
  let saved = Workbench.jobs () in
  let tmp = Filename.temp_file "gecko_tel" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Workbench.set_jobs saved;
      try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Workbench.set_jobs 1;
      let serial = telemetry_stream small_spec tmp in
      Workbench.set_jobs 4;
      let parallel = telemetry_stream small_spec tmp in
      Alcotest.(check bool) "stream has a header and shard records" true
        (List.length (String.split_on_char '\n' serial) > 2);
      Alcotest.(check string)
        "jobs=1 and jobs=4 telemetry streams are byte-identical" serial
        parallel)

(* A device's outlier record in [t], in the persisted form — exactly
   what the stream carries. *)
let outlier_record (t : Telemetry.t) id =
  match
    List.find_opt (fun o -> o.Telemetry.o_device = id) t.Telemetry.outliers
  with
  | Some o ->
      Json.to_string
        (Telemetry.to_json
           { (Telemetry.empty ~top_k:1) with Telemetry.outliers = [ o ] })
  | None -> Alcotest.fail (Printf.sprintf "no outlier record for device %d" id)

let test_replay_matches_campaign () =
  let r =
    Fleet.Campaign.run ~telemetry:Telemetry.default_config small_spec
  in
  let tel =
    match r.Fleet.Campaign.telemetry with
    | Some t -> t
    | None -> Alcotest.fail "telemetry-armed campaign produced no telemetry"
  in
  match tel.Telemetry.outliers with
  | [] -> Alcotest.fail "campaign surfaced no outliers to drill into"
  | top :: _ ->
      let id = top.Telemetry.o_device in
      let rp = Fleet.Campaign.replay ~device_id:id small_spec in
      Alcotest.(check string)
        "replayed outlier record equals the campaign's" (outlier_record tel id)
        (outlier_record rp.Fleet.Campaign.rp_telemetry id);
      Alcotest.(check bool) "flight dump is non-empty" true
        (Gecko_obs.Flight.length rp.Fleet.Campaign.rp_flight > 0);
      Alcotest.(check int)
        "replayed corruption count matches the record"
        top.Telemetry.o_corruptions
        rp.Fleet.Campaign.rp_agg.Fleet.Agg.corruptions;
      (* The bridge to the shrinker produces a well-formed repro. *)
      let repro = Fleet.Campaign.shrink_repro rp in
      Alcotest.(check bool) "shrink repro is non-trivial" true
        (Gecko_faultinject.Shrink.size repro > 0)

(* The stream's [final] record carries the campaign total next to the
   outliers: the shard-id-order aggregate merge, the report's [total]. *)
let test_stream_final_total () =
  let tmp = Filename.temp_file "gecko_tel" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let r =
        Fleet.Campaign.run
          ~telemetry:
            { Telemetry.default_config with Telemetry.tel_path = Some tmp }
          small_spec
      in
      let report =
        match r.Fleet.Campaign.report with
        | Some rep -> Fleet.Report.to_json rep
        | None -> Alcotest.fail "campaign did not complete"
      in
      let final =
        In_channel.with_open_bin tmp In_channel.input_all
        |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match Json.parse l with
               | Ok j when Json.member "final" j <> None -> Some j
               | Ok _ | Error _ -> None)
        |> function
        | Some j -> j
        | None -> Alcotest.fail "stream has no final record"
      in
      let member k j =
        match Json.member k j with
        | Some v -> v
        | None -> Alcotest.fail ("missing " ^ k)
      in
      Alcotest.(check string)
        "the final record's total equals the report's"
        (Json.to_string (member "total" report))
        (Json.to_string (member "total" final));
      let recorded = Telemetry.of_json (member "final" final) in
      match recorded.Telemetry.outliers with
      | [] -> Alcotest.fail "the final record holds no outliers"
      | top :: _ ->
          let id = top.Telemetry.o_device in
          let rp = Fleet.Campaign.replay ~device_id:id small_spec in
          Alcotest.(check string)
            "replay reproduces the stream's top outlier record"
            (outlier_record recorded id)
            (outlier_record rp.Fleet.Campaign.rp_telemetry id))

let test_snapshot_roundtrip () =
  let spec =
    Fleet.Spec.make ~devices:8 ~duration:0.01 ~shard_size:4 ~seed:3 ()
  in
  let devices, field = Fleet.Campaign.elaborate spec in
  let sr = Fleet.Campaign.run_shard ~spec ~field ~devices 0 in
  let json = Fleet.Campaign.snapshot_json spec [ sr ] in
  let spec', shards' = Fleet.Campaign.parse_snapshot (Json.to_string json) in
  Alcotest.(check bool) "spec round-trips" true (Fleet.Spec.equal spec spec');
  Alcotest.(check string)
    "shard result round-trips exactly"
    (Json.to_string (Fleet.Campaign.shard_to_json sr))
    (Json.to_string (Fleet.Campaign.shard_to_json (List.hd shards')))

let test_elaborate_deterministic () =
  let spec = Fleet.Spec.make ~devices:32 ~seed:5 () in
  let d1, f1 = Fleet.Campaign.elaborate spec in
  let d2, f2 = Fleet.Campaign.elaborate spec in
  Alcotest.(check bool) "device assignments are pure" true (d1 = d2);
  let exposures f =
    Array.map
      (fun (d : Fleet.Campaign.device) ->
        Fleet.Field.exposure_seconds
          (Fleet.Field.schedule_at f ~x:d.Fleet.Campaign.x ~y:d.Fleet.Campaign.y))
      d1
  in
  Alcotest.(check bool) "field schedules are pure" true (exposures f1 = exposures f2)

let test_spec_json_roundtrip () =
  let spec =
    Fleet.Spec.make ~devices:100 ~attackers:3 ~duration:0.125 ~area_m:50.
      ~shard_size:9 ~workload_mix:[ "crc32"; "fir" ]
      ~scheme_mix:[ Gecko_core.Scheme.Gecko; Gecko_core.Scheme.Gecko_noprune ]
      ~board_mix:[ Fleet.Spec.Bench; Fleet.Spec.Attack_rig ]
      ~freq_mhz:13.56 ~power_dbm:33. ~seed:42 ()
  in
  Alcotest.(check bool)
    "spec JSON round-trips" true
    (Fleet.Spec.equal spec (Fleet.Spec.of_json (Fleet.Spec.to_json spec)))

let test_spec_rejects_nonsense () =
  let base = Fleet.Spec.make ~devices:4 ~seed:1 () in
  List.iter
    (fun (label, spec) ->
      Alcotest.(check bool)
        label true
        (match Fleet.Spec.validate spec with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("zero devices", { base with Fleet.Spec.devices = 0 });
      ("zero shard size", { base with Fleet.Spec.shard_size = 0 });
      ("negative duration", { base with Fleet.Spec.duration = -1. });
      ("empty workload mix", { base with Fleet.Spec.workload_mix = [] });
      ("unknown workload", { base with Fleet.Spec.workload_mix = [ "nope" ] });
      ("empty scheme mix", { base with Fleet.Spec.scheme_mix = [] });
    ]

(* --- heartbeat.gasm round-trip --------------------------------------- *)

(* --- shared prefixes ---------------------------------------------------- *)

module M = Gecko_machine.Machine
module Schedule = Gecko_emi.Schedule

(* Small random campaigns over both boards, all three schemes, 1-4
   attackers and odd shard sizes. *)
let prefix_spec_gen =
  QCheck.Gen.(
    map
      (fun (seed, attackers, k, power_dbm) ->
        Fleet.Spec.make ~devices:10 ~attackers ~duration:0.01
          ~shard_size:((2 * k) + 1)
          ~scheme_mix:Gecko_core.Scheme.[ Nvp; Ratchet; Gecko ]
          ~board_mix:Fleet.Spec.[ Attack_rig; Bench ]
          ~workload_mix:[ "crc16"; "fir" ] ~power_dbm ~seed ())
      (quad (int_bound 100_000) (int_range 1 4) (int_bound 3)
         (oneofl [ 30.; 40. ])))

let finish_handle h =
  while M.Step.step_block h do
    ()
  done;
  let o = M.Step.outcome h in
  ( o,
    Option.map (fun r -> Json.to_string (Metrics.to_persist r)) (M.Step.metrics h),
    Option.map Gecko_obs.Flight.to_string (M.Step.flight h) )

(* Every device forked from the prefix table must be indistinguishable
   from its power-on run: the whole outcome (events, completion times,
   io_log), the metrics registry, the flight recorder, and what the
   campaign folds — aggregate (detection latencies included), metrics
   and telemetry, the outlier's flight dump with it.  ADC observation
   counts do not depend on block chunking, so the registries match
   exactly on these boards. *)
let prop_prefix_equals_power_on =
  QCheck.Test.make ~count:10
    ~name:"a device forked from the prefix table equals its power-on run"
    (QCheck.make
       ~print:(fun s -> Json.to_string (Fleet.Spec.to_json s))
       prefix_spec_gen)
    (fun spec ->
      let telemetry =
        { Telemetry.default_config with Telemetry.tel_top_k = 1 }
      in
      let devices, field = Fleet.Campaign.elaborate spec in
      let table () =
        Fleet.Shard.prefix ~telemetry ~spec ~field (Array.to_list devices)
      in
      let view (agg, reg, tel) =
        ( Json.to_string (Fleet.Agg.to_json agg),
          Json.to_string (Metrics.to_persist reg),
          Option.map (fun t -> Json.to_string (Telemetry.to_json t)) tel )
      in
      let prefix = table () in
      let runs_equal =
        Array.for_all
          (fun d ->
            view (Fleet.Shard.run_device ~telemetry ~prefix ~spec ~field d)
            = view (Fleet.Shard.run_device ~telemetry ~spec ~field d))
          devices
      in
      let prefix = table () in
      let handles_equal =
        Array.for_all
          (fun d ->
            finish_handle (Fleet.Shard.start ~telemetry ~prefix ~spec ~field d)
            = finish_handle (Fleet.Shard.start ~telemetry ~spec ~field d))
          devices
      in
      let prefix = table () in
      let shards_equal =
        List.for_all
          (fun sid ->
            let shard ?prefix () =
              Json.to_string
                (Fleet.Shard.to_json
                   (Fleet.Campaign.run_shard ~telemetry ?prefix ~spec ~field
                      ~devices sid))
            in
            shard ~prefix () = shard ())
          (List.init (Fleet.Spec.shards spec) Fun.id)
      in
      runs_equal && handles_equal && shards_equal)

(* A program that reads a sensor: its run depends on the seed, so the
   prefix key must carry it, and a fork of the schedule-free run given
   the attack schedule must still equal the power-on run for the same
   seed. *)
let sensor_program () =
  let module B = Gecko_isa.Builder in
  let module Reg = Gecko_isa.Reg in
  let b = B.program "sensor" in
  let acc = B.space b "acc" ~words:1 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.block b "loop" ~loop_bound:8;
  B.io_in b Reg.r1 0;
  B.ld b Reg.r2 (B.at acc 0);
  B.add b Reg.r2 Reg.r2 (B.reg Reg.r1);
  B.st b (B.at acc 0) Reg.r2;
  B.io_out b 1 Reg.r2;
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Gecko_isa.Instr.Slt Reg.r3 Reg.r0 (B.imm 8);
  B.br b Gecko_isa.Instr.Nz Reg.r3 "loop" "done_";
  B.block b "done_";
  B.halt b;
  B.finish b

let test_prefix_fork_reads_input () =
  let p, meta =
    Gecko_core.Pipeline.compile Gecko_core.Scheme.Gecko (sensor_program ())
  in
  let image = Gecko_isa.Link.link p in
  let board = Gecko_machine.Board.attack_rig () in
  let t0 = 0.004 in
  let schedule =
    Schedule.make
      [
        Schedule.window ~t_start:t0 ~t_end:0.007
          (Gecko_emi.Attack.remote ~distance_m:0.5
             (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:40.));
      ]
  in
  let opts seed schedule =
    {
      M.default_options with
      schedule;
      seed;
      limit = M.Sim_time 0.01;
      max_sim_time = 1.01;
      restart_on_halt = true;
      record_io = true;
      record_events = true;
      metrics = Some (Metrics.create ());
      flight = Some (Gecko_obs.Flight.create ());
    }
  in
  let power_on ?(board = board) seed =
    finish_handle (M.Step.start ~board ~image ~meta (opts seed schedule))
  in
  let forked ?(board = board) ?(horizon = t0) seed =
    let h = M.Step.start ~board ~image ~meta (opts seed Schedule.empty) in
    M.Step.advance_to h horizon;
    finish_handle (M.Step.fork ~schedule h)
  in
  Alcotest.(check bool) "the image reads input" true
    (Fleet.Shard.reads_input image);
  let (o, _, _) as a = power_on 3 in
  Alcotest.(check bool) "the attack window bites" true
    (o.M.detections + o.M.brownouts > 0);
  Alcotest.(check bool) "fork with the schedule equals power-on (seed 3)" true
    (forked 3 = a);
  Alcotest.(check bool) "fork with the schedule equals power-on (seed 4)" true
    (forked 4 = power_on 4);
  (* A prefix advanced to a horizon before the window cuts a block there
     that the power-on run does not cut.  Block dispatch counts the
     comparator observes it skips, so the fork's metrics do not depend
     on where the blocks were cut. *)
  let comparator =
    Gecko_machine.Board.attack_rig
      ~monitor_choice:Gecko_devices.Device.Use_comparator ()
  in
  Alcotest.(check bool)
    "fork at an earlier horizon equals power-on (comparator)" true
    (forked ~board:comparator ~horizon:0.0025 3
    = power_on ~board:comparator 3);
  let (o4, _, _) = power_on 4 in
  Alcotest.(check bool) "the seed changes the run, so it must key the prefix"
    true (o.M.io_log <> o4.M.io_log);
  Alcotest.(check bool) "catalogued workloads read no input" false
    (List.exists
       (fun w ->
         let image, _, _ =
           Workbench.decoded_workload Gecko_core.Scheme.Gecko w ~board
         in
         Fleet.Shard.reads_input image)
       [ "crc16"; "crc32"; "bitcnt"; "fir" ]);
  let h = M.Step.start ~board ~image ~meta (opts 3 Schedule.empty) in
  M.Step.advance_to h 0.005;
  Alcotest.(check bool) "a schedule starting before the horizon is refused"
    true
    (match M.Step.fork ~schedule h with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "a scheduled handle is not advanced" true
    (match
       M.Step.advance_to (M.Step.start ~board ~image ~meta (opts 3 schedule)) t0
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Both campaign boards sample with their ADC: the fleet models
   ADC-monitored devices, and a change of monitor kind would move every
   campaign figure. *)
let test_campaign_boards_use_adc () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Fleet.Spec.board_slug kind ^ " samples with its ADC")
        true
        ((Fleet.Shard.board kind).Gecko_machine.Board.monitor_choice
        = Gecko_devices.Device.Use_adc))
    Fleet.Spec.[ Attack_rig; Bench ]

(* dune runtest runs in _build/default/test; dune exec from the root. *)
let heartbeat_path =
  List.find Sys.file_exists
    [ "../examples/heartbeat.gasm"; "examples/heartbeat.gasm" ]

let test_heartbeat_roundtrip () =
  match Asm.parse_file heartbeat_path with
  | Error e -> Alcotest.fail ("parse_file failed: " ^ e)
  | Ok p -> (
      let text = Asm.to_string p in
      match Asm.parse text with
      | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
      | Ok p' ->
          Alcotest.(check string)
            "printed assembly reaches a fixpoint" text (Asm.to_string p'))

(* --------------------------------------------------------------------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "merge-laws",
        q
          [
            prop_acc_identity;
            prop_acc_commutative;
            prop_acc_associative;
            prop_acc_merge_is_concat;
            prop_metrics_identity;
            prop_metrics_commutative;
            prop_metrics_associative;
            prop_metrics_persist_roundtrip;
            prop_metrics_quantile_monotone;
          ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 byte-equality" `Slow
            test_jobs_byte_equality;
          Alcotest.test_case "telemetry jobs=1 vs jobs=4 byte-equality" `Slow
            test_telemetry_jobs_byte_equality;
          Alcotest.test_case "replay matches campaign outlier" `Slow
            test_replay_matches_campaign;
          Alcotest.test_case "stream final carries the report total" `Slow
            test_stream_final_total;
          Alcotest.test_case "resume equals uninterrupted" `Slow
            test_resume_equals_uninterrupted;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "elaborate is deterministic" `Quick
            test_elaborate_deterministic;
        ] );
      ( "prefix",
        q [ prop_prefix_equals_power_on ]
        @ [
            Alcotest.test_case "fork of an input-reading run" `Quick
              test_prefix_fork_reads_input;
            Alcotest.test_case "campaign boards use ADC monitors" `Quick
              test_campaign_boards_use_adc;
            Alcotest.test_case "campaign shares prefixes" `Quick
              test_campaign_shares_prefixes;
          ] );
      ( "spec",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_spec_json_roundtrip;
          Alcotest.test_case "validation rejects nonsense" `Quick
            test_spec_rejects_nonsense;
        ] );
      ( "asm",
        [
          Alcotest.test_case "heartbeat.gasm round-trip" `Quick
            test_heartbeat_roundtrip;
        ] );
    ]
