(* The shard substrate under a fleet campaign: the exact JSON round-trip
   of a telemetry-bearing shard result (what a telemetry-armed resume
   reads back), the streaming-memory regression (a shard folds its
   devices through O(1) live memory, never a device list), and the
   prefix table's bound (fork points, not devices). *)

module Fleet = Gecko_fleet
module Json = Gecko_obs.Json
module Telemetry = Gecko_fleet.Telemetry
module Workbench = Gecko_harness.Workbench

(* --- shard result round-trip ----------------------------------------- *)

let test_telemetry_shard_roundtrip () =
  let spec =
    Fleet.Spec.make ~devices:8 ~attackers:2 ~duration:0.01 ~shard_size:8
      ~seed:11 ()
  in
  let devices, field = Fleet.Campaign.elaborate spec in
  let sr =
    Fleet.Campaign.run_shard ~telemetry:Telemetry.default_config ~spec ~field
      ~devices 0
  in
  Alcotest.(check bool)
    "a telemetry-armed shard carries telemetry" true
    (Option.is_some sr.Fleet.Shard.sr_telemetry);
  let text = Json.to_string (Fleet.Shard.to_json sr) in
  Alcotest.(check string)
    "shard result round-trips exactly" text
    (Json.to_string (Fleet.Shard.to_json (Fleet.Shard.of_json (Fleet.Shard.to_json sr))))

(* --- streaming-memory regression -------------------------------------- *)

(* A 50k-device shard must fold through O(1) live memory per finished
   device: the shard holds its accumulator, never a device list.  Sample
   the live heap every few thousand finished devices; the later samples
   must not grow with the device count (a reintroduced per-device list
   at even ~100 words/device would add ~4M live words between the
   reference sample and the end). *)
let test_streaming_memory_bound () =
  let n = 50_000 in
  let spec =
    Fleet.Spec.make ~devices:n ~attackers:1 ~duration:0.0005 ~shard_size:n
      ~seed:3 ()
  in
  let devices, field = Fleet.Campaign.elaborate spec in
  let acc = Fleet.Shard.acc_create 0 in
  let reference = ref 0 in
  let worst_growth = ref 0 in
  let sample () =
    Gc.full_major ();
    let live = (Gc.quick_stat ()).Gc.live_words in
    if !reference = 0 then reference := live
    else worst_growth := max !worst_growth (live - !reference)
  in
  Array.iteri
    (fun i d ->
      Fleet.Shard.acc_add acc d (Fleet.Shard.run_device ~spec ~field d);
      if (i + 1) mod 5_000 = 0 then sample ())
    devices;
  let sr = Fleet.Shard.acc_finish acc in
  Alcotest.(check int) "every device folded in" n
    sr.Fleet.Shard.sr_agg.Fleet.Agg.devices;
  Alcotest.(check bool)
    (Printf.sprintf
       "live heap growth after the first sample stays bounded (worst %d words)"
       !worst_growth)
    true
    (!worst_growth < 2_000_000)

(* --- prefix-table memory bound ------------------------------------------ *)

(* The prefix table holds one reference run per key, forked at each
   first-window start its devices need: O(keys x (field_steps + 1)),
   never O(devices).  Once every key and fork point is covered, ten times
   the devices with the same mixes and field_steps must leave the
   table's live heap exactly where it was. *)
let test_prefix_table_bound () =
  let table_words n =
    let spec =
      Fleet.Spec.make ~devices:n ~attackers:3 ~duration:0.002 ~field_steps:2
        ~shard_size:512 ~workload_mix:[ "crc16"; "fir" ]
        ~scheme_mix:Gecko_core.Scheme.[ Gecko ]
        ~board_mix:Fleet.Spec.[ Attack_rig; Bench ]
        ~seed:5 ()
    in
    let devices, field = Fleet.Campaign.elaborate spec in
    let devices = Array.to_list devices in
    let build () =
      Fleet.Shard.prefix ~telemetry:Telemetry.default_config ~spec ~field
        devices
    in
    (* The first build fills the compile and decode caches. *)
    ignore (build ());
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.live_words in
    let table = build () in
    Gc.full_major ();
    let after = (Gc.quick_stat ()).Gc.live_words in
    (* Everything allocated before [before] stays live through [after]. *)
    ignore (Sys.opaque_identity (table, devices, field));
    after - before
  in
  (* Serial builds: every reference lives on this domain's heap. *)
  let saved = Workbench.jobs () in
  let small, large =
    Fun.protect
      ~finally:(fun () -> Workbench.set_jobs saved)
      (fun () ->
        Workbench.set_jobs 1;
        let small = table_words 2_000 in
        (small, table_words 20_000))
  in
  Alcotest.(check bool)
    (Printf.sprintf "the 2k-device table is live (%d words)" small)
    true (small > 0);
  Alcotest.(check int) "a 20k-device table takes the same live words" small
    large

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "shard"
    [
      ( "shard-result",
        [
          Alcotest.test_case "telemetry JSON round-trip" `Quick
            test_telemetry_shard_roundtrip;
        ] );
      ( "memory",
        [
          Alcotest.test_case "50k-device shard streams in O(1) memory" `Slow
            test_streaming_memory_bound;
          Alcotest.test_case "prefix table is bounded by fork points" `Quick
            test_prefix_table_bound;
        ] );
    ]
