(* The shard substrate under a fleet campaign: the exact JSON round-trip
   of a telemetry-bearing shard result (what a telemetry-armed resume
   reads back), and the streaming-memory regression (a shard folds its
   devices through O(1) live memory, never a device list). *)

module Fleet = Gecko_fleet
module Json = Gecko_obs.Json
module Telemetry = Gecko_fleet.Telemetry

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
        ] );
    ]
