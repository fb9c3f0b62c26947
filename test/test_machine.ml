open Gecko_isa
module B = Builder
module Core = Gecko_core
module M = Gecko_machine
module H = Gecko_energy.Harvester

(* Weighted array sum with prunable live-ins (constant bound, read-only
   coefficient) and loop-carried state in NVM. *)
let sum_program () =
  let b = B.program "sum" in
  let data = B.space b "data" ~words:16 ~init:(Array.init 16 (fun i -> i + 1)) () in
  let acc = B.space b "acc" ~words:1 () in
  let coeff = B.space b "coeff" ~words:2 ~init:[| 3; 5 |] () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 0;
  B.st b (B.at acc 0) Reg.r1;
  B.li b Reg.r5 16;
  B.ld b Reg.r6 (B.at coeff 0);
  B.block b "loop" ~loop_bound:16;
  B.ld b Reg.r2 (B.idx data Reg.r0);
  B.mul b Reg.r2 Reg.r2 (B.reg Reg.r6);
  B.ld b Reg.r3 (B.at acc 0);
  B.add b Reg.r3 Reg.r3 (B.reg Reg.r2);
  B.st b (B.at acc 0) Reg.r3;
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Instr.Slt Reg.r4 Reg.r0 (B.reg Reg.r5);
  B.br b Instr.Nz Reg.r4 "loop" "done_";
  B.block b "done_";
  B.halt b;
  B.finish b

let compile_and_link scheme =
  let p, meta = Core.Pipeline.compile scheme (sum_program ()) in
  (Link.link p, meta)

let expected_sum = 3 * (16 * 17 / 2)

let acc_addr image =
  let space = Cfg.find_space image.Link.prog "acc" in
  image.Link.space_base.(space.Instr.space_id)

let test_continuous_power () =
  List.iter
    (fun scheme ->
      let image, meta = compile_and_link scheme in
      let board = M.Board.default () in
      let o, nvm =
        M.Machine.run_with_nvm ~board ~image ~meta M.Machine.default_options
      in
      Alcotest.(check int)
        (Core.Scheme.to_string scheme ^ " completes")
        1 o.M.Machine.completions;
      Alcotest.(check int)
        (Core.Scheme.to_string scheme ^ " result")
        expected_sum
        nvm.(acc_addr image))
    Core.Scheme.all

let test_intermittent_power () =
  (* A weak harvester with 2 Hz outages: every scheme must still produce
     the golden result (NVP checkpoints just in time; the others roll). *)
  let harvester =
    H.square_wave ~period:0.5 ~duty:0.6 (H.thevenin ~v_source:3.3 ~r_source:40.)
  in
  List.iter
    (fun scheme ->
      let image, meta = compile_and_link scheme in
      let board = M.Board.default ~harvester () in
      let golden = M.Machine.golden_nvm ~board ~image ~meta in
      let opts =
        { M.Machine.default_options with max_sim_time = 120.; seed = 7 }
      in
      let o, nvm = M.Machine.run_with_nvm ~board ~image ~meta opts in
      Alcotest.(check int)
        (Core.Scheme.to_string scheme ^ " completes")
        1 o.M.Machine.completions;
      Alcotest.(check (array int))
        (Core.Scheme.to_string scheme ^ " crash-consistent")
        golden nvm)
    Core.Scheme.all


(* Runtime behaviour details. *)

let outage_board () =
  let device =
    let d = Gecko_devices.Catalog.evaluation_board in
    {
      d with
      Gecko_devices.Device.core =
        {
          d.Gecko_devices.Device.core with
          Gecko_devices.Device.reboot_latency = 2e-4;
          reboot_energy = 6e-7;
        };
    }
  in
  {
    (M.Board.default ~device
       ~harvester:(H.thevenin ~v_source:3.3 ~r_source:2000.) ())
    with
    M.Board.capacitance = 0.6e-6;
  }

let test_jit_resume_events () =
  let prog = (Gecko_workloads.Workload.find "stringsearch").Gecko_workloads.Workload.build () in
  let p, meta = Core.Pipeline.compile Core.Scheme.Nvp prog in
  let image = Link.link p in
  let board = outage_board () in
  let o =
    M.Machine.run ~board ~image ~meta
      { M.Machine.default_options with record_events = true; max_sim_time = 30. }
  in
  Alcotest.(check int) "completes" 1 o.M.Machine.completions;
  let kinds = List.map (fun (e : M.Machine.event) -> e.M.Machine.ev_kind) o.M.Machine.events in
  Alcotest.(check bool) "checkpointed" true (List.mem M.Machine.Ev_checkpoint kinds);
  Alcotest.(check bool) "restored" true (List.mem M.Machine.Ev_restore_jit kinds);
  (* Events are time-ordered. *)
  let rec ordered = function
    | (a : M.Machine.event) :: (b :: _ as rest) ->
        a.M.Machine.ev_time <= b.M.Machine.ev_time && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered o.M.Machine.events)

let test_io_log () =
  let blink = (Gecko_workloads.Workload.find "blink").Gecko_workloads.Workload.build () in
  let p, meta = Core.Pipeline.compile Core.Scheme.Nvp blink in
  let image = Link.link p in
  let board = M.Board.default () in
  let o =
    M.Machine.run ~board ~image ~meta
      { M.Machine.default_options with record_io = true }
  in
  Alcotest.(check int) "eight blinks logged" 8 (List.length o.M.Machine.io_log);
  Alcotest.(check int) "count matches" o.M.Machine.io_out_count
    (List.length o.M.Machine.io_log);
  (* Alternating LED values 0,1,0,1... *)
  List.iteri
    (fun i (port, v) ->
      Alcotest.(check int) "port" 0 port;
      Alcotest.(check int) "value" (i land 1) v)
    o.M.Machine.io_log

let test_timeline_buckets () =
  let image, meta = compile_and_link Core.Scheme.Nvp in
  let board = M.Board.default () in
  let o =
    M.Machine.run ~board ~image ~meta
      {
        M.Machine.default_options with
        limit = M.Machine.Sim_time 0.05;
        restart_on_halt = true;
        timeline_bucket = Some 0.01;
      }
  in
  match o.M.Machine.timeline with
  | None -> Alcotest.fail "expected a timeline"
  | Some tl ->
      let total = Array.fold_left ( + ) 0 tl.M.Machine.completions_per_bucket in
      Alcotest.(check int) "buckets sum to completions" o.M.Machine.completions total

(* Property: the recorded event stream is time-ordered and its per-kind
   counts agree with the outcome counters, for every scheme, with and
   without an attack.  This pins the contract the observability layer
   (and the CLI trace export) builds on: every counter bump has exactly
   one recorded event. *)

let check_events_agree name (o : M.Machine.outcome) =
  let rec ordered = function
    | (a : M.Machine.event) :: (b :: _ as rest) ->
        a.M.Machine.ev_time <= b.M.Machine.ev_time && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) (name ^ ": timestamps ordered") true
    (ordered o.M.Machine.events);
  let kinds =
    List.map (fun (e : M.Machine.event) -> e.M.Machine.ev_kind)
      o.M.Machine.events
  in
  let n p = List.length (List.filter p kinds) in
  let check what expected p =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) expected (n p)
  in
  check "checkpoints" o.M.Machine.jit_checkpoints (function
    | M.Machine.Ev_checkpoint -> true
    | _ -> false);
  check "checkpoint failures" o.M.Machine.jit_checkpoint_failures (function
    | M.Machine.Ev_checkpoint_failed -> true
    | _ -> false);
  check "rollbacks" o.M.Machine.rollbacks (function
    | M.Machine.Ev_rollback _ -> true
    | _ -> false);
  check "brownouts" o.M.Machine.brownouts (function
    | M.Machine.Ev_brownout -> true
    | _ -> false);
  check "detections" o.M.Machine.detections (function
    | M.Machine.Ev_detection -> true
    | _ -> false);
  check "reenables" o.M.Machine.reenables (function
    | M.Machine.Ev_reenable -> true
    | _ -> false);
  check "completions" o.M.Machine.completions (function
    | M.Machine.Ev_completion -> true
    | _ -> false);
  (* The initial charged boot is recorded but is not a re-boot. *)
  check "boots" (o.M.Machine.reboots + 1) (function
    | M.Machine.Ev_boot _ -> true
    | _ -> false)

let test_events_match_counters () =
  let attack_schedule =
    Gecko_emi.Schedule.always
      (Gecko_emi.Attack.remote ~distance_m:0.1
         (Gecko_emi.Signal.make ~freq_mhz:27. ~power_dbm:20.))
  in
  let outage_harvester =
    H.square_wave ~period:0.5 ~duty:0.6
      (H.thevenin ~v_source:3.3 ~r_source:40.)
  in
  List.iter
    (fun scheme ->
      let image, meta = compile_and_link scheme in
      List.iter
        (fun (label, board, schedule) ->
          let o =
            M.Machine.run ~board ~image ~meta
              {
                M.Machine.default_options with
                schedule;
                record_events = true;
                limit = M.Machine.Sim_time 0.3;
                restart_on_halt = true;
                max_sim_time = 1.;
                seed = 11;
              }
          in
          check_events_agree
            (Core.Scheme.to_string scheme ^ "/" ^ label)
            o)
        [
          ( "outages",
            M.Board.default ~harvester:outage_harvester (),
            Gecko_emi.Schedule.empty );
          ( "attack",
            M.Board.attack_rig ~device:Gecko_devices.Catalog.msp430fr5994 (),
            attack_schedule );
        ])
    [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko ]

let test_sim_time_cap () =
  (* A dead harvester and completions limit: the cap must kick in. *)
  let image, meta = compile_and_link Core.Scheme.Nvp in
  let board =
    { (M.Board.default ~harvester:Gecko_energy.Harvester.none ()) with
      M.Board.capacitance = 1e-6 }
  in
  let o =
    M.Machine.run ~board ~image ~meta
      {
        M.Machine.default_options with
        limit = M.Machine.Completions 1000;
        restart_on_halt = true;
        max_sim_time = 0.2;
      }
  in
  Alcotest.(check bool) "cap reached" true (o.M.Machine.sim_time >= 0.2);
  Alcotest.(check bool) "limit not hit" false o.M.Machine.hit_limit

(* A [ret] that pops a data word as its return address sends control
   outside the code; the machine must say so on both dispatch modes. *)
let bad_return_program () =
  let b = B.program "badret" in
  let buf = B.space b "buf" ~words:4 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r1 500;
  B.st b (B.at buf 0) Reg.r1;
  B.li b Reg.sp (-5);
  B.ret b;
  B.finish b

let test_pc_outside_code () =
  List.iter
    (fun scheme ->
      let p, meta = Core.Pipeline.compile scheme (bad_return_program ()) in
      let image = Link.link p in
      let expected =
        Printf.sprintf "Machine: pc 500 outside the code [0, %d)"
          (Array.length image.Link.code)
      in
      List.iter
        (fun fast ->
          let label =
            Printf.sprintf "%s fast=%b" (Core.Scheme.to_string scheme) fast
          in
          match
            M.Machine.run ~board:(M.Board.default ()) ~image ~meta
              { M.Machine.default_options with fast }
          with
          | _ -> Alcotest.failf "%s: control left the code silently" label
          | exception Invalid_argument msg ->
              Alcotest.(check string) label expected msg)
        [ true; false ])
    [ Core.Scheme.Nvp; Core.Scheme.Gecko ]

(* A dynamic load past the end of NVM must fail with [Nvm]'s own range
   message, not the runtime's bounds check, on both dispatch modes. *)
let test_nvm_range_checked () =
  let b = B.program "overrun" in
  let buf = B.space b "buf" ~words:4 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r1 1_000_000;
  B.ld b Reg.r2 (B.idx buf Reg.r1);
  B.halt b;
  let p, meta = Core.Pipeline.compile Core.Scheme.Nvp (B.finish b) in
  let image = Link.link p in
  List.iter
    (fun fast ->
      match
        M.Machine.run ~board:(M.Board.default ()) ~image ~meta
          { M.Machine.default_options with fast }
      with
      | _ -> Alcotest.failf "fast=%b: an out-of-range load ran" fast
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "fast=%b: range message (got %S)" fast msg)
            true
            (String.starts_with ~prefix:"Nvm: address" msg))
    [ true; false ]

let () =
  Alcotest.run "machine-smoke"
    [
      ( "machine",
        [
          Alcotest.test_case "continuous power" `Quick test_continuous_power;
          Alcotest.test_case "intermittent power" `Quick test_intermittent_power;
          Alcotest.test_case "JIT resume events" `Quick test_jit_resume_events;
          Alcotest.test_case "io log" `Quick test_io_log;
          Alcotest.test_case "timeline buckets" `Quick test_timeline_buckets;
          Alcotest.test_case "events match counters" `Quick
            test_events_match_counters;
          Alcotest.test_case "sim-time cap" `Quick test_sim_time_cap;
          Alcotest.test_case "pc outside the code" `Quick test_pc_outside_code;
          Alcotest.test_case "NVM is range-checked" `Quick test_nvm_range_checked;
        ] );
    ]
