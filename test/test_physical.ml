(* Unit tests for the physical substrates: capacitor, harvesters, EMI
   coupling/attacks, the voltage monitor, and the NVM model. *)

module Cap = Gecko_energy.Capacitor
module H = Gecko_energy.Harvester
module C = Gecko_emi.Coupling
module S = Gecko_emi.Signal
module At = Gecko_emi.Attack
module Sch = Gecko_emi.Schedule
module Mon = Gecko_monitor.Monitor
module Nvm = Gecko_mem.Nvm

let feq = Alcotest.float 1e-6

let test_capacitor_energy () =
  let c = Cap.create ~capacitance:1e-3 ~v_max:3.3 ~v_init:3.0 in
  Alcotest.check feq "E = CV^2/2" (0.5 *. 1e-3 *. 9.) (Cap.energy c);
  let removed = Cap.drain c 1e-3 in
  Alcotest.check feq "removed what was asked" 1e-3 removed;
  Alcotest.check feq "remaining" (0.5 *. 1e-3 *. 9. -. 1e-3) (Cap.energy c);
  (* Draining more than stored empties it. *)
  let removed = Cap.drain c 1.0 in
  Alcotest.(check bool) "partial removal" true (removed < 1.0);
  Alcotest.check feq "empty" 0. (Cap.energy c)

let test_charge_time_rc () =
  (* Simulated RC charging matches the analytic time within a step. *)
  let capacitance = 1e-4 and r_source = 100. and v_source = 3.3 in
  let analytic =
    Cap.charge_time_rc ~capacitance ~v_source ~r_source ~v_from:1.0 ~v_to:3.0
  in
  let c = Cap.create ~capacitance ~v_max:3.3 ~v_init:1.0 in
  let h = H.thevenin ~v_source ~r_source in
  let dt = 1e-5 in
  let t = ref 0. in
  while Cap.voltage c < 3.0 && !t < 1.0 do
    Cap.source_current c ~amps:(H.current h ~time:!t ~v:(Cap.voltage c)) ~dt;
    t := !t +. dt
  done;
  Alcotest.(check bool) "within 2%" true
    (Float.abs (!t -. analytic) /. analytic < 0.02);
  Alcotest.(check bool) "infinite beyond source" true
    (Cap.charge_time_rc ~capacitance ~v_source ~r_source ~v_from:1.0 ~v_to:3.4
    = infinity)

let test_square_wave () =
  let h = H.square_wave ~period:1.0 ~duty:0.25 (H.thevenin ~v_source:3.3 ~r_source:1.) in
  Alcotest.(check bool) "on during duty" true (H.current h ~time:0.1 ~v:1.0 > 0.);
  Alcotest.check feq "off after duty" 0. (H.current h ~time:0.5 ~v:1.0);
  Alcotest.(check bool) "periodic" true (H.current h ~time:1.1 ~v:1.0 > 0.)

let test_coupling_profile () =
  let p = C.profile [ C.peak ~f0_mhz:27. ~half_width_mhz:6. ~gain:3. ] in
  let g = C.gain p in
  Alcotest.(check bool) "peaks at resonance" true
    (g ~freq_hz:27e6 > g ~freq_hz:10e6 && g ~freq_hz:27e6 > g ~freq_hz:40e6);
  Alcotest.(check bool) "VHF rolled off" true (g ~freq_hz:200e6 < 0.05 *. g ~freq_hz:27e6);
  Alcotest.(check int) "peak frequency" 27
    (int_of_float (C.peak_frequency_mhz p))

let test_attack_paths () =
  let profile = C.profile [ C.peak ~f0_mhz:27. ~half_width_mhz:6. ~gain:3. ] in
  let sig27 = S.make ~freq_mhz:27. ~power_dbm:20. in
  let amp a = At.induced_amplitude ~profile a in
  Alcotest.(check bool) "P2 couples more than P1" true
    (amp (At.dpi At.P2 sig27) > amp (At.dpi At.P1 sig27));
  Alcotest.(check bool) "wall attenuates" true
    (amp (At.remote ~distance_m:2. sig27)
    > amp (At.remote ~through_wall:true ~distance_m:2. sig27));
  Alcotest.check feq "dbm roundtrip" 0.1 (S.power_watts (S.make ~freq_mhz:1. ~power_dbm:20.))

let test_schedule () =
  let a = At.remote ~distance_m:1. (S.make ~freq_mhz:27. ~power_dbm:20.) in
  let s = Sch.make [ Sch.window ~t_start:1. ~t_end:2. a ] in
  Alcotest.(check bool) "inactive before" true (Sch.active s 0.5 = None);
  Alcotest.(check bool) "active inside" true (Sch.active s 1.5 <> None);
  Alcotest.(check bool) "inactive after" true (Sch.active s 2.5 = None);
  (match Sch.make [ Sch.window ~t_start:0. ~t_end:2. a; Sch.window ~t_start:1. ~t_end:3. a ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection")

let test_monitor_adc () =
  let m =
    Mon.create (Mon.Adc { sample_period = 1e-4 })
      { Mon.v_backup = 2.2; v_on = 3.0 }
  in
  (* No trigger before a sampling tick. *)
  Alcotest.(check bool) "no tick yet" true
    (Mon.observe m ~time:5e-5 ~v_true:2.0 ~disturbance:0. = None);
  Alcotest.(check bool) "backup at tick" true
    (Mon.observe m ~time:2e-4 ~v_true:2.0 ~disturbance:0. = Some Mon.Backup);
  (* Disturbance makes a healthy rail look dead. *)
  Mon.sync m ~time:2e-4;
  Alcotest.(check bool) "spurious backup" true
    (Mon.observe m ~time:4e-4 ~v_true:3.3 ~disturbance:2.0 = Some Mon.Backup);
  (* Wake arming and disable. *)
  Mon.arm_wake m;
  Mon.sync m ~time:4e-4;
  Alcotest.(check bool) "no wake below v_on" true
    (Mon.observe m ~time:6e-4 ~v_true:2.5 ~disturbance:0. = None);
  Alcotest.(check bool) "spurious wake" true
    (Mon.observe m ~time:8e-4 ~v_true:2.5 ~disturbance:0.6 = Some Mon.Wake);
  Mon.set_enabled m false;
  Alcotest.(check bool) "disabled is silent" true
    (Mon.observe m ~time:1e-3 ~v_true:0.5 ~disturbance:5.0 = None)

let test_monitor_comparator () =
  let m =
    Mon.create (Mon.Comparator { latency = 1e-6 })
      { Mon.v_backup = 2.2; v_on = 3.0 }
  in
  (* The condition must hold for the propagation delay. *)
  Alcotest.(check bool) "onset" true
    (Mon.observe m ~time:0. ~v_true:2.0 ~disturbance:0. = None);
  Alcotest.(check bool) "after latency" true
    (Mon.observe m ~time:2e-6 ~v_true:2.0 ~disturbance:0. = Some Mon.Backup)

let test_nvm () =
  let n = Nvm.create ~words:8 () in
  Nvm.write n 3 42;
  Alcotest.(check int) "read back" 42 (Nvm.read n 3);
  let s = Nvm.snapshot n in
  Nvm.write n 3 7;
  Alcotest.(check (list (triple int int int))) "diff" [ (3, 42, 7) ]
    (Nvm.diff s (Nvm.snapshot n));
  Nvm.restore n s;
  Alcotest.(check int) "restored" 42 (Nvm.read n 3);
  (match Nvm.read n 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds check")

let () =
  Alcotest.run "physical"
    [
      ( "energy",
        [
          Alcotest.test_case "capacitor energy" `Quick test_capacitor_energy;
          Alcotest.test_case "rc charge time" `Quick test_charge_time_rc;
          Alcotest.test_case "square wave" `Quick test_square_wave;
        ] );
      ( "emi",
        [
          Alcotest.test_case "coupling profile" `Quick test_coupling_profile;
          Alcotest.test_case "attack paths" `Quick test_attack_paths;
          Alcotest.test_case "schedule" `Quick test_schedule;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "adc" `Quick test_monitor_adc;
          Alcotest.test_case "comparator" `Quick test_monitor_comparator;
        ] );
      ("nvm", [ Alcotest.test_case "basic" `Quick test_nvm ]);
    ]
