(* Properties of the pre-decode pass (Decode) and differentials of the
   machine, on its block dispatcher and on its per-slot checked step,
   against both the frozen reference interpreter and each other. *)

open Gecko_isa
module Core = Gecko_core
module M = Gecko_machine
module D = Gecko_machine.Decode
module H = Gecko_energy.Harvester

(* Half the seeds carry calls (see [Gen_prog.generate_mixed]), so
   force-kept slots reach every differential below. *)
let compile scheme seed =
  let p, meta = Core.Pipeline.compile scheme (Gen_prog.generate_mixed seed) in
  (Link.link p, meta)

let scheme_of seed =
  List.nth
    [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune;
      Core.Scheme.Gecko ]
    (seed mod 4)

let seed_gen = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 99999)

(* --- decode structure ------------------------------------------------- *)

(* Structural equality of two decodes, field by field.  [image] is
   deliberately excluded: provenance is compared by physical equality in
   the machine, and both sides here decode the same image anyway. *)
let dec_eq (a : D.t) (b : D.t) =
  a.D.ops = b.D.ops && a.D.dt = b.D.dt && a.D.en = b.D.en && a.D.cyc = b.D.cyc
  && a.D.blk_end = b.D.blk_end && a.D.e_sfx = b.D.e_sfx
  && a.D.dt_sfx = b.D.dt_sfx && a.D.n_ops = b.D.n_ops && a.D.consts = b.D.consts

let decode_of_seed seed =
  let image, _meta = compile (scheme_of seed) seed in
  let device = (M.Board.default ()).M.Board.device in
  (image, D.decode ~device image)

(* Decode is total on every generated program x scheme and lowers each
   linked instruction to exactly one slot, so boundaries survive 1:1. *)
let prop_decode_total_counts =
  QCheck.Test.make ~count:100
    ~name:"decode is total and preserves instruction/boundary counts"
    seed_gen (fun seed ->
      let image, d = decode_of_seed seed in
      let code = image.Link.code in
      let boundaries_src =
        Array.fold_left
          (fun acc li ->
            match li with
            | Link.Op (Instr.Boundary _) -> acc + 1
            | _ -> acc)
          0 code
      in
      let boundaries_dec =
        Array.fold_left
          (fun acc op -> match op with D.M_boundary _ -> acc + 1 | _ -> acc)
          0 d.D.ops
      in
      d.D.n_ops = Array.length code
      && Array.length d.D.ops = d.D.n_ops
      && boundaries_dec = boundaries_src)

(* The dispatcher retires one instruction per micro-op, so slot [i]
   must be the lowering of [image.code.(i)] itself: same kind, same
   operands (register indices, absolute NVM cells), same branch
   targets.  Written out independently of [Decode.decode]. *)
let lowers_to (image : Link.image) li op =
  let ri = Reg.to_int in
  let gecko_cell r colour =
    image.Link.gecko_base + Link.Cells.gecko_slot r colour
  in
  let sys_cell off = image.Link.sys_base + off in
  let base (m : Instr.mref) =
    image.Link.space_base.(m.Instr.space.Instr.space_id)
  in
  match (li, op) with
  | Link.Op (Instr.Li (d, v)), D.M_li (d', v') -> ri d = d' && v = v'
  | Link.Op (Instr.Mov (d, s)), D.M_mov (d', s') -> ri d = d' && ri s = s'
  | Link.Op (Instr.Bin (o, d, a, Instr.Oreg b)), D.M_bin_rr (o', d', a', b')
    ->
      o = o' && ri d = d' && ri a = a' && ri b = b'
  | Link.Op (Instr.Bin (o, d, a, Instr.Oimm v)), D.M_bin_ri (o', d', a', v')
    ->
      o = o' && ri d = d' && ri a = a' && v = v'
  | Link.Op (Instr.Ld (d, ({ Instr.disp = Instr.Dconst c; _ } as m))),
    D.M_ld (d', addr) ->
      ri d = d' && base m + c = addr
  | Link.Op (Instr.Ld (d, ({ Instr.disp = Instr.Dreg r; _ } as m))),
    D.M_ld_dyn (d', b', r') ->
      ri d = d' && base m = b' && ri r = r'
  | Link.Op (Instr.St (({ Instr.disp = Instr.Dconst c; _ } as m), s)),
    D.M_st (addr, s') ->
      base m + c = addr && ri s = s'
  | Link.Op (Instr.St (({ Instr.disp = Instr.Dreg r; _ } as m), s)),
    D.M_st_dyn (b', r', s') ->
      base m = b' && ri r = r' && ri s = s'
  | Link.Op (Instr.In (d, port)), D.M_in (d', port') -> ri d = d' && port = port'
  | Link.Op (Instr.Out (port, s)), D.M_out (port', s') ->
      port = port' && ri s = s'
  | Link.Op Instr.Nop, D.M_nop -> true
  | Link.Op (Instr.Ckpt (src, colour)), D.M_ckpt (cell, src') ->
      gecko_cell src colour = cell && ri src = src'
  | Link.Op (Instr.CkptDyn src), D.M_ckptdyn (src', parity, cells) ->
      ri src = src'
      && parity = sys_cell Link.Cells.sys_parity
      && cells = sys_cell Link.Cells.sys_ratchet_lo + ri src
  | Link.Op (Instr.LdSlot (d, src, colour)), D.M_ldslot (d', cell) ->
      ri d = d' && gecko_cell (Reg.of_int src) colour = cell
  | Link.Op (Instr.Boundary id), D.M_boundary id' -> id = id'
  | Link.Ljmp t, D.M_jmp t' -> t = t'
  | Link.Lbr (c, r, t, e), D.M_br (c', r', t', e') ->
      c = c' && ri r = r' && t = t' && e = e'
  | Link.Lcall (target, ret), D.M_call (target', ret') ->
      target = target' && ret = ret'
  | Link.Lret, D.M_ret | Link.Lhalt, D.M_halt -> true
  | _ -> false

let prop_decode_lowers_each_slot =
  QCheck.Test.make ~count:100
    ~name:"decode lowers every slot to its own instruction" seed_gen
    (fun seed ->
      let image, d = decode_of_seed seed in
      Array.length d.D.ops = Array.length image.Link.code
      && Array.for_all2 (lowers_to image) image.Link.code d.D.ops)

(* Same image, same device -> bit-identical decode, and the Workbench
   cache returns the one memoized value (physical equality) that is
   itself equal to a fresh decode. *)
let prop_decode_deterministic =
  QCheck.Test.make ~count:60 ~name:"decode is deterministic" seed_gen
    (fun seed ->
      let image, d1 = decode_of_seed seed in
      let device = (M.Board.default ()).M.Board.device in
      dec_eq d1 (D.decode ~device image))

let prop_decode_cache_hit =
  QCheck.Test.make ~count:40
    ~name:"workbench decode cache hit equals a fresh decode" seed_gen
    (fun seed ->
      let scheme = scheme_of seed in
      let prog = Gen_prog.generate_mixed seed in
      let board = M.Board.default () in
      let image, _meta, dec1 = Gecko_harness.Workbench.decoded scheme prog ~board in
      let _, _, dec2 = Gecko_harness.Workbench.decoded scheme prog ~board in
      dec2 == dec1
      && dec1.D.image == image
      && dec_eq dec1 (D.decode ~device:board.M.Board.device image))

(* The Workbench caches key a program on its listing, not its name:
   [generate 4] and [generate_mixed 4] are both [rand_4], the second with
   calls, and each must get its own image, equal to a fresh compile.
   Both are checked, so whichever a shared entry would serve, one of
   them fails. *)
let test_workbench_keys_on_listing () =
  let scheme = Core.Scheme.Gecko in
  let board = M.Board.default () in
  let plain = Gen_prog.generate 4 and mixed = Gen_prog.generate_mixed 4 in
  Alcotest.(check string) "same name" plain.Cfg.pname mixed.Cfg.pname;
  Alcotest.(check bool) "different listings" false
    (Asm.to_string plain = Asm.to_string mixed);
  List.iter
    (fun (what, prog) ->
      let image, _meta, dec =
        Gecko_harness.Workbench.decoded scheme prog ~board
      in
      let fresh = Link.link (fst (Core.Pipeline.compile scheme prog)) in
      Alcotest.(check string)
        (what ^ ": cached listing equals a fresh compile")
        (Asm.to_string fresh.Link.prog) (Asm.to_string image.Link.prog);
      Alcotest.(check bool)
        (what ^ ": cached code equals a fresh compile")
        true
        (image.Link.code = fresh.Link.code);
      Alcotest.(check bool)
        (what ^ ": cached decode equals a fresh decode")
        true
        (dec_eq dec (D.decode ~device:board.M.Board.device fresh)))
    [ ("generate 4", plain); ("generate_mixed 4", mixed) ]

(* --- differentials ---------------------------------------------------- *)

(* Outage-prone board as in test_props: tiny storage, weak harvester. *)
let crashy_board () =
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

let norm (o : M.Machine.outcome) =
  ( ( o.M.Machine.completions,
      o.M.Machine.completion_times,
      o.M.Machine.sim_time,
      o.M.Machine.app_cycles,
      o.M.Machine.app_seconds,
      o.M.Machine.instrumentation_cycles ),
    ( o.M.Machine.jit_checkpoints,
      o.M.Machine.jit_checkpoint_failures,
      o.M.Machine.reboots,
      o.M.Machine.brownouts,
      o.M.Machine.detections,
      o.M.Machine.reenables ),
    ( o.M.Machine.rollbacks,
      o.M.Machine.recovery_block_runs,
      o.M.Machine.corruptions,
      o.M.Machine.io_out_count,
      o.M.Machine.io_log,
      o.M.Machine.final_mode ),
    List.map (Format.asprintf "%a" M.Machine.pp_event) o.M.Machine.events,
    o.M.Machine.hit_limit )

let norm_ref (o : Ref_machine.outcome) =
  ( ( o.Ref_machine.completions,
      o.Ref_machine.completion_times,
      o.Ref_machine.sim_time,
      o.Ref_machine.app_cycles,
      o.Ref_machine.app_seconds,
      o.Ref_machine.instrumentation_cycles ),
    ( o.Ref_machine.jit_checkpoints,
      o.Ref_machine.jit_checkpoint_failures,
      o.Ref_machine.reboots,
      o.Ref_machine.brownouts,
      o.Ref_machine.detections,
      o.Ref_machine.reenables ),
    ( o.Ref_machine.rollbacks,
      o.Ref_machine.recovery_block_runs,
      o.Ref_machine.corruptions,
      o.Ref_machine.io_out_count,
      o.Ref_machine.io_log,
      o.Ref_machine.final_mode ),
    List.map (Format.asprintf "%a" Ref_machine.pp_event) o.Ref_machine.events,
    o.Ref_machine.hit_limit )

(* The end-of-run energy gauges (fleet reports aggregate the first two),
   as raw bits so the comparison is exact. *)
let energy_bits reg =
  List.map
    (fun name ->
      Int64.bits_of_float
        (Gecko_obs.Metrics.gauge_value (Gecko_obs.Metrics.gauge reg name)))
    [ "energy.drained_j"; "energy.sourced_j"; "machine.cap_voltage_final_v" ]

(* One run of the frozen reference against two of the machine on the
   same board and options: block dispatch on ([fast]) and every slot
   through the per-instruction checked step ([fast = false]).  Each must
   match the reference in outcome, final NVM data segment and energy
   books. *)
let both_paths_match_reference ~board ~seed ~image ~meta =
  let rmetrics = Gecko_obs.Metrics.create () in
  let r, rnvm =
    Ref_machine.run_with_nvm ~board ~image ~meta
      {
        Ref_machine.default_options with
        Ref_machine.limit = Ref_machine.Sim_time 0.15;
        max_sim_time = 0.2;
        seed;
        restart_on_halt = true;
        record_io = true;
        record_events = true;
        metrics = Some rmetrics;
      }
  in
  List.for_all
    (fun fast ->
      let metrics = Gecko_obs.Metrics.create () in
      let o, nvm =
        M.Machine.run_with_nvm ~board ~image ~meta
          {
            M.Machine.default_options with
            limit = M.Machine.Sim_time 0.15;
            max_sim_time = 0.2;
            seed;
            restart_on_halt = true;
            record_io = true;
            record_events = true;
            fast;
            metrics = Some metrics;
          }
      in
      norm o = norm_ref r && nvm = rnvm
      && energy_bits metrics = energy_bits rmetrics)
    [ true; false ]

(* Both dispatch modes must match the frozen reference — same EMI
   schedule, crash-prone board. *)
let prop_checked_matches_reference =
  QCheck.Test.make ~count:16
    ~name:"fast path matches the reference"
    seed_gen (fun seed ->
      let image, meta = compile (scheme_of seed) seed in
      both_paths_match_reference ~board:(crashy_board ()) ~seed ~image ~meta)

(* Genuine mid-run power failures: the supply is gated by a square wave,
   so the capacitor collapses and recovers repeatedly.  Rollback and
   replay, through decoded blocks or slot by slot, must retrace the
   reference exactly. *)
let prop_outage_matches_reference =
  QCheck.Test.make ~count:12
    ~name:"fast path matches the reference across power failures"
    seed_gen (fun seed ->
      let image, meta = compile (scheme_of seed) seed in
      let board =
        {
          (crashy_board ()) with
          M.Board.harvester =
            H.square_wave ~period:0.02 ~duty:0.55
              (H.thevenin ~v_source:3.3 ~r_source:1500.);
        }
      in
      both_paths_match_reference ~board ~seed ~image ~meta)

(* An injected power failure mid-run (the n-th instruction-fetch site),
   identically on the fast and the checked interpreter: the decoded
   dispatcher's rollback/replay must be step-for-step equivalent to the
   per-instruction path's.  The reference has no injection hooks, so the
   machine differentials against itself with [fast] flipped.  As in
   [Inject.drive], each side steps on the checked path until the
   injector has fired, then drops it and finishes on [Step.step_block]:
   block dispatch only runs without an injector, so the fast side's
   post-failure recovery really goes through the decoded blocks. *)
let prop_injected_failure_fast_vs_checked =
  QCheck.Test.make ~count:12
    ~name:"injected mid-run failure: fast path equals checked path"
    seed_gen (fun seed ->
      let scheme = scheme_of seed in
      let image, meta = compile scheme seed in
      let board = crashy_board () in
      let run_with ~fast =
        let metrics = Gecko_obs.Metrics.create () in
        let h =
          M.Machine.Step.start ~board ~image ~meta
            {
              M.Machine.default_options with
              limit = M.Machine.Sim_time 0.1;
              max_sim_time = 0.15;
              seed;
              restart_on_halt = true;
              record_io = true;
              record_events = true;
              fast;
              metrics = Some metrics;
            }
        in
        let fetches = ref 0 in
        let target = 200 + (seed mod 400) in
        M.Machine.Step.set_injector h
          (Some
             (fun site ->
               match site with
               | M.Machine.S_instr ->
                   incr fetches;
                   !fetches = target
               | _ -> false));
        while !fetches < target && M.Machine.Step.step h do
          ()
        done;
        M.Machine.Step.set_injector h None;
        while M.Machine.Step.step_block h do
          ()
        done;
        let o = M.Machine.Step.outcome h in
        (o, M.Machine.Step.nvm_data h, energy_bits metrics)
      in
      let o1, nvm1, e1 = run_with ~fast:true in
      let o2, nvm2, e2 = run_with ~fast:false in
      norm o1 = norm o2 && nvm1 = nvm2 && e1 = e2)

(* The first region commit of a power cycle also writes the progress
   flag, a cost its decoded [dt]/[en] leave out, so block dispatch must
   hand it to the checked step.  On a device whose ADC samples every few
   cycles that flag write often straddles a sampling tick: batching the
   commit would skip the sample the checked step takes after it, shift
   every later tick and move the run.  A square-wave supply gives many
   power cycles, hence many first commits. *)
let prop_first_commit_fast_vs_checked =
  QCheck.Test.make ~count:12
    ~name:"first commits straddling ADC ticks: fast path equals checked path"
    seed_gen (fun seed ->
      let image, meta = compile (scheme_of seed) seed in
      let board = crashy_board () in
      let device = board.M.Board.device in
      let sample_period =
        float_of_int (2 + (seed mod 5)) *. Gecko_devices.Device.cycle_time device
      in
      let board =
        {
          board with
          M.Board.device =
            {
              device with
              Gecko_devices.Device.adc_kind =
                Gecko_monitor.Monitor.Adc { sample_period };
            };
          harvester =
            H.square_wave ~period:0.02 ~duty:0.55
              (H.thevenin ~v_source:3.3 ~r_source:1500.);
        }
      in
      let run ~fast =
        let metrics = Gecko_obs.Metrics.create () in
        let o, nvm =
          M.Machine.run_with_nvm ~board ~image ~meta
            {
              M.Machine.default_options with
              limit = M.Machine.Sim_time 0.1;
              max_sim_time = 0.15;
              seed;
              restart_on_halt = true;
              record_io = true;
              record_events = true;
              fast;
              metrics = Some metrics;
            }
        in
        (norm o, nvm, Gecko_obs.Metrics.to_persist metrics)
      in
      run ~fast:true = run ~fast:false)

(* Pure observers (metrics registry, flight recorder) plus an armed but
   always-false injector must leave the fast path's outcome untouched. *)
let prop_observers_do_not_perturb =
  QCheck.Test.make ~count:10
    ~name:"armed observers and a false injector do not perturb the run"
    seed_gen (fun seed ->
      let scheme = scheme_of seed in
      let image, meta = compile scheme seed in
      let board = crashy_board () in
      let base_opts =
        {
          M.Machine.default_options with
          limit = M.Machine.Sim_time 0.1;
          max_sim_time = 0.15;
          seed;
          restart_on_halt = true;
          record_io = true;
          record_events = true;
        }
      in
      let plain = M.Machine.run ~board ~image ~meta base_opts in
      let observed =
        let h =
          M.Machine.Step.start ~board ~image ~meta
            {
              base_opts with
              metrics = Some (Gecko_obs.Metrics.create ());
              flight = Some (Gecko_obs.Flight.create ~capacity:32 ());
            }
        in
        M.Machine.Step.set_injector h (Some (fun _ -> false));
        while M.Machine.Step.step h do
          ()
        done;
        M.Machine.Step.outcome h
      in
      norm plain = norm observed)

(* A decode made for one device carries that device's cycle time and
   energies, so a run on a device with other constants must not use it:
   the outcome, NVM and energy books equal those of a run that decodes
   for itself ([decoded = None]), on either dispatch mode.  The MSP432P
   clocks at 16 MHz, the MSP430FR2311 at 8 MHz. *)
let test_decode_for_other_device_ignored () =
  let p, meta =
    Core.Pipeline.compile Core.Scheme.Gecko
      ((Gecko_workloads.Workload.find "crc16").Gecko_workloads.Workload.build ())
  in
  let image = Link.link p in
  let stale = D.decode ~device:Gecko_devices.Catalog.msp430fr2311 image in
  let board = M.Board.default ~device:Gecko_devices.Catalog.msp432p () in
  Alcotest.(check bool) "the stale decode does not fit" false
    (D.fits stale ~device:board.M.Board.device image);
  List.iter
    (fun fast ->
      let run decoded =
        let metrics = Gecko_obs.Metrics.create () in
        let o, nvm =
          M.Machine.run_with_nvm ~board ~image ~meta
            {
              M.Machine.default_options with
              limit = M.Machine.Sim_time 0.05;
              fast;
              decoded;
              metrics = Some metrics;
            }
        in
        (norm o, nvm, energy_bits metrics)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fast=%b: same run as decoded = None" fast)
        true
        (run (Some stale) = run None))
    [ true; false ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "decoder"
    [
      ( "decode",
        q
          [
            prop_decode_total_counts;
            prop_decode_lowers_each_slot;
            prop_decode_deterministic;
            prop_decode_cache_hit;
          ]
        @ [
            Alcotest.test_case "workbench keys on the listing" `Quick
              test_workbench_keys_on_listing;
            Alcotest.test_case "a decode for another device is ignored" `Quick
              test_decode_for_other_device_ignored;
          ] );
      ( "differential-checked",
        q
          [
            prop_checked_matches_reference;
            prop_outage_matches_reference;
            prop_injected_failure_fast_vs_checked;
            prop_first_commit_fast_vs_checked;
            prop_observers_do_not_perturb;
          ] );
    ]
