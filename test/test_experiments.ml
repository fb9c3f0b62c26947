(* The paper's shape claims that EXPERIMENTS.md marks as reproduced,
   checked as predicates over the quick-fidelity artifacts' headline
   metrics: a change that breaks one fails here, not only in a
   regenerated table. *)

module E = Gecko_harness.Experiments

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
        ] );
    ]
