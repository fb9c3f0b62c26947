(* The paper's shape claims that EXPERIMENTS.md marks as reproduced,
   checked as predicates over the quick-fidelity artifacts' headline
   metrics: a change that breaks one fails here, not only in a
   regenerated table. *)

module E = Gecko_harness.Experiments
module Device = Gecko_devices.Device
module Coupling = Gecko_emi.Coupling

let metric (a : E.artifact) key =
  match List.assoc_opt key a.E.metrics with
  | Some v -> v
  | None -> Alcotest.failf "artifact lacks metric %S" key

(* Fig. 11: on continuous power GECKO costs less than GECKO without
   pruning, which costs less than Ratchet. *)
let test_fig11_ordering () =
  let a = E.fig11_overhead_no_outage E.Quick in
  let g s = metric a (s ^ ".geomean") in
  let gecko = g "gecko" and noprune = g "gecko_noprune" in
  let ratchet = g "ratchet" in
  Alcotest.(check bool)
    (Printf.sprintf "gecko %g < gecko_noprune %g < ratchet %g" gecko noprune
       ratchet)
    true
    (gecko < noprune && noprune < ratchet)

(* Fig. 13: GECKO detects every attack scenario and no false one,
   out-runs Ratchet in all six, and keeps its unattacked throughput
   while under attack. *)
let test_fig13_detection () =
  let a = E.fig13_attack_scenarios E.Quick in
  let m sc key = metric a (sc ^ "." ^ key) in
  let base = m "a" "gecko.throughput" in
  Alcotest.(check (float 0.)) "a: no false detection" 0.
    (m "a" "gecko.detections");
  List.iter
    (fun sc ->
      let gecko = m sc "gecko.throughput" in
      let ratchet = m sc "ratchet.throughput" in
      if sc <> "a" then
        Alcotest.(check bool)
          (Printf.sprintf "%s: gecko detects (%g)" sc
             (m sc "gecko.detections"))
          true
          (m sc "gecko.detections" >= 1.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: gecko %g > ratchet %g" sc gecko ratchet)
        true (gecko > ratchet);
      Alcotest.(check bool)
        (Printf.sprintf "%s: gecko %g within 0.05 of a's %g" sc gecko base)
        true
        (Float.abs (gecko -. base) <= 0.05))
    [ "a"; "b"; "c"; "d"; "e"; "f" ]

(* Fig. 14: under RF energy harvesting GECKO costs less than Ratchet. *)
let test_fig14_ordering () =
  let a = E.fig14_harvesting_overhead E.Quick in
  let gecko = metric a "gecko.geomean" in
  let ratchet = metric a "ratchet.geomean" in
  Alcotest.(check bool)
    (Printf.sprintf "gecko %g < ratchet %g" gecko ratchet)
    true (gecko < ratchet)

(* Fig. 15: GECKO matches NVP at every capacitor size. *)
let test_fig15_parity () =
  let a = E.fig15_capacitor_sweep E.Quick in
  let ratios =
    List.filter
      (fun (k, _) -> String.ends_with ~suffix:".gecko_over_nvp" k)
      a.E.metrics
  in
  Alcotest.(check bool) "one ratio per capacitor size" true (ratios <> []);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g is within 1e-3 of 1" k v)
        true
        (Float.abs (v -. 1.) <= 1e-3))
    ratios

(* The per-device metric key: the model name, lower-cased, with every
   character outside [a-z0-9.] replaced by '_'. *)
let slug model =
  String.map
    (function
      | 'A' .. 'Z' as c -> Char.lowercase_ascii c
      | ('a' .. 'z' | '0' .. '9' | '.') as c -> c
      | _ -> '_')
    model

(* Figs. 5 and 7, Table I: every swept monitor's attack frequency is
   its coupling resonance, within 1 MHz. *)
let check_resonances (a : E.artifact) monitor key =
  List.iter
    (fun d ->
      if monitor = Device.Use_adc || Device.has_comparator d then begin
        let peak = Coupling.peak_frequency_mhz (Device.coupling d monitor) in
        let f = metric a (slug d.Device.model ^ "." ^ key) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s = %g within 1 MHz of the %g MHz resonance"
             d.Device.model key f peak)
          true
          (Float.abs (f -. peak) <= 1.)
      end)
    Gecko_devices.Catalog.all

let test_fig5_resonance () =
  check_resonances (E.fig5_remote_adc_sweep E.Quick) Device.Use_adc "fmin_mhz"

let test_fig7_resonance () =
  check_resonances
    (E.fig7_remote_comparator_sweep E.Quick)
    Device.Use_comparator "comp_fmin_mhz"

let test_table1_resonance () =
  check_resonances (E.table1 E.Quick) Device.Use_adc "fmin_mhz"

(* A near-tie goes to the stronger coupling, and the reported R is the
   one measured there. *)
let test_min_point_near_tie () =
  let profile =
    Coupling.profile
      [ Coupling.peak ~f0_mhz:27. ~half_width_mhz:1. ~gain:1. ]
  in
  let f, r = E.min_point profile [ (10., 0.0105); (27., 0.0100) ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "27 MHz, its own R"
    (27., 0.0100) (f, r);
  let f, r = E.min_point profile [ (27., 0.0100); (10., 0.0105) ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "order does not matter"
    (27., 0.0100) (f, r);
  let f, r = E.min_point profile [ (27., 0.5); (10., 0.0105) ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "a clear minimum wins"
    (10., 0.0105) (f, r)

let () =
  Alcotest.run "experiments"
    [
      ( "quick-fidelity",
        [
          Alcotest.test_case "fig11 gecko < noprune < ratchet" `Quick
            test_fig11_ordering;
          Alcotest.test_case "fig13 gecko detects and holds throughput" `Quick
            test_fig13_detection;
          Alcotest.test_case "fig14 gecko < ratchet" `Quick
            test_fig14_ordering;
          Alcotest.test_case "fig15 gecko/nvp within 1e-3 of 1" `Quick
            test_fig15_parity;
          Alcotest.test_case "fig5 fmin at each ADC resonance" `Quick
            test_fig5_resonance;
          Alcotest.test_case "fig7 fmin at each comparator resonance" `Quick
            test_fig7_resonance;
          Alcotest.test_case "table1 fmin at each ADC resonance" `Quick
            test_table1_resonance;
        ] );
      ( "min-point",
        [
          Alcotest.test_case "near-tie keeps its own R" `Quick
            test_min_point_near_tie;
        ] );
    ]
