(* Tentpole tests for the fault-injection layer (Gecko_faultinject):
   the exhaustive single-failure explorer over every workload x scheme,
   the pinned vulnerability/defect landscape, the EMI schedule fuzzer,
   the corruptions regression of the paper's headline result, and the
   sabotage acceptance demo (deliberately broken colouring caught and
   shrunk to a tiny replayable reproducer). *)

open Gecko_isa
module Core = Gecko_core
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module H = Gecko_energy.Harvester
module Schedule = Gecko_emi.Schedule
module W = Gecko_workloads
module FI = Gecko_faultinject

(* A starved board: the tiny capacitor makes the usable energy above
   [v_backup] small enough that checkpoints trigger mid-run, while the
   2.8 V backup threshold leaves a reserve large enough for the 96-word
   ISR to finish.  This yields censuses rich in checkpoint-word,
   rollback-step and event sites for every scheme. *)
let fi_board () =
  {
    (Board.default ~harvester:(H.thevenin ~v_source:3.3 ~r_source:2000.) ())
    with
    Board.capacitance = 0.6e-6;
    v_backup = 2.8;
  }

let compile ?budget_cycles scheme w =
  let prog = (W.Workload.find w).W.Workload.build () in
  let p, meta = Core.Pipeline.compile ?budget_cycles scheme prog in
  (Link.link p, meta)

let explore ?(budget = 120) ?pairs scheme w =
  let image, meta = compile scheme w in
  FI.Explore.explore ~jobs:2 ~budget ?pairs ~board:(fi_board ()) ~image ~meta ()

(* {1 The explorer sweep: every workload x every scheme}

   Expectations pinned from an exhaustive (budget 400) run of the
   explorer, re-checked here at CI budget:

   - Ratchet's parity double-buffering survives a collapse at every
     explored site of every workload.
   - NVP is crash-INCONSISTENT on qsort and fft: a collapse inside the
     JIT checkpoint window resumes from a half-written snapshot (the
     attack surface of the paper; kept as the positive control that the
     explorer still has teeth).
   - GECKO is crash-consistent on ALL workloads.  The five formerly
     defective ones (basicmath, blink, dhrystone, fft, qsort — may-alias
     WAR hazards through dynamically addressed stores, and blink's torn
     io_log across a rollback) went clean with the sound pipeline
     (hazard-aware region formation + slot reuse force-kept where it
     is clobbered + Verify.slots/io_commit gates + staged io_log commit); they get
     extra k=2 pair exploration below so a regression in the fix shows
     up as a FOUND failure here. *)

let nvp_failing = [ "fft"; "qsort" ]

(* Defective before the sound may-alias pipeline; pinned clean now. *)
let gecko_formerly_failing = [ "basicmath"; "blink"; "dhrystone"; "fft"; "qsort" ]

let expect_failures scheme w =
  match scheme with
  | Core.Scheme.Ratchet -> false
  | Core.Scheme.Nvp -> List.mem w nvp_failing
  | Core.Scheme.Gecko | Core.Scheme.Gecko_noprune -> false

let sweep_one scheme w =
  (* blink's and fft's former GECKO defects sat at single sites the CI
     stride misses; keep the full exhaustive budget there (still cheap)
     so a regression cannot hide between strides. *)
  let budget =
    if scheme = Core.Scheme.Gecko && (w = "blink" || w = "fft") then 400
    else 120
  in
  let r = explore ~budget scheme w in
  let tag = Printf.sprintf "%s/%s" (Core.Scheme.to_string scheme) w in
  Alcotest.(check bool) (tag ^ " baseline passes oracle") true
    r.FI.Explore.baseline_ok;
  Alcotest.(check bool) (tag ^ " sites found") true (r.FI.Explore.sites_total > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s failures (%d found)" tag
       (List.length r.FI.Explore.failures))
    (expect_failures scheme w)
    (r.FI.Explore.failures <> [])

let test_sweep scheme () = List.iter (sweep_one scheme) W.Workload.names

let test_blink_io_log_intact () =
  (* Inverted from the seed's pinned defect: with the staged io_log
     commit, an exhaustive sweep finds no failure at all on blink — in
     particular no "golden" mismatch (a lost or duplicated io record). *)
  let r = explore ~budget:400 Core.Scheme.Gecko "blink" in
  Alcotest.(check (list Alcotest.string)) "blink/gecko io_log intact" []
    (List.map (fun f -> f.FI.Explore.f_detail) r.FI.Explore.failures)

let test_formerly_failing_pairs () =
  (* Double-failure (k=2) exploration on the five workloads the sound
     pipeline fixed: a rollback interrupted by a second collapse must
     also find only committed state. *)
  List.iter
    (fun w ->
      let r = explore ~budget:120 ~pairs:12 Core.Scheme.Gecko w in
      Alcotest.(check int) (w ^ " k=2 replays") 12 r.FI.Explore.explored_pairs;
      Alcotest.(check (list Alcotest.string))
        (w ^ " no single or pair failures") []
        (List.map (fun f -> f.FI.Explore.f_detail) r.FI.Explore.failures))
    gecko_formerly_failing

let test_speculative_sweep () =
  (* Acceptance sweep for speculation: with optimistic checkpoint-slot
     reuse, force-kept wherever a store clobbers the reused slot in the
     reuser's crash window, GECKO must remain
     crash-consistent at every explored single-failure site of every
     workload — and survive k=2 pair exploration on the five formerly
     defective ones, where a rollback interrupted by a second collapse
     must also find only committed state. *)
  List.iter
    (fun w ->
      let pairs = if List.mem w gecko_formerly_failing then Some 8 else None in
      let r =
        explore ~budget:120 ?pairs Core.Scheme.Gecko w
      in
      let tag = "gecko[speculative]/" ^ w in
      Alcotest.(check bool) (tag ^ " baseline passes oracle") true
        r.FI.Explore.baseline_ok;
      Alcotest.(check bool)
        (tag ^ " sites found") true
        (r.FI.Explore.sites_total > 0);
      Alcotest.(check (list Alcotest.string))
        (tag ^ " no single or pair failures") []
        (List.map (fun f -> f.FI.Explore.f_detail) r.FI.Explore.failures))
    W.Workload.names

(* {1 Census determinism and k=2 pairs} *)

let test_census_deterministic () =
  let image, meta = compile Core.Scheme.Gecko "crc16" in
  let census () =
    let sites, _, _ =
      FI.Inject.census ~board:(fi_board ()) ~image ~meta FI.Explore.default_opts
    in
    Array.map
      (fun s ->
        ( s.FI.Inject.s_ordinal,
          FI.Inject.kind_name s.FI.Inject.s_kind,
          s.FI.Inject.s_time ))
      sites
  in
  let a = census () and b = census () in
  Alcotest.(check int) "same census size" (Array.length a) (Array.length b);
  Array.iteri
    (fun i (o, k, t) ->
      let o', k', t' = b.(i) in
      if o <> o' || k <> k' || t <> t' then
        Alcotest.failf "census diverges at site %d: (%d,%s,%g) vs (%d,%s,%g)" i
          o k t o' k' t')
    a

let test_pairs_explored () =
  let r = explore ~budget:40 ~pairs:8 Core.Scheme.Gecko "crc32" in
  Alcotest.(check int) "k=2 replays" 8 r.FI.Explore.explored_pairs;
  Alcotest.(check (list Alcotest.string)) "no pair failures on crc32" []
    (List.map (fun f -> f.FI.Explore.f_detail) r.FI.Explore.failures)

(* {1 Fuzzer} *)

let test_fuzz_deterministic () =
  let image, meta = compile Core.Scheme.Gecko "crc16" in
  let opts = { FI.Explore.default_opts with M.max_sim_time = 2.0 } in
  let go () =
    FI.Fuzz.fuzz ~budget:12 ~seed:5 ~opts ~board:(fi_board ()) ~image ~meta ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "evals match budget" 12 a.FI.Fuzz.evals;
  Alcotest.(check int) "same evals" a.FI.Fuzz.evals b.FI.Fuzz.evals;
  Alcotest.(check (float 0.)) "same best score" a.FI.Fuzz.best_score
    b.FI.Fuzz.best_score

(* {1 Corruptions regression: the paper's headline numbers}

   An intermittent supply plus a resonant EMI tone aimed at the
   checkpoint windows learned from a recon trace.  NVP boots from
   torn snapshots (corruptions); GECKO detects every induced failure
   and never resumes from one. *)

let attack_board () =
  let harvester =
    H.square_wave ~period:0.08 ~duty:0.2
      (H.thevenin ~v_source:3.3 ~r_source:150.)
  in
  { (Board.attack_rig ()) with Board.harvester }

let corruptions_under_checkpoint_attack scheme =
  let board = attack_board () in
  let attack = FI.Fuzz.resonant_attack board in
  let image, meta = compile scheme "crc16" in
  let base_opts =
    {
      M.default_options with
      M.limit = M.Sim_time 2.0;
      restart_on_halt = true;
      max_sim_time = 3.0;
      seed = 11;
      record_events = true;
    }
  in
  let recon = M.run ~board ~image ~meta base_opts in
  let times = FI.Fuzz.checkpoint_times recon.M.events in
  Alcotest.(check bool) "recon observed checkpoints" true (times <> []);
  let schedule = FI.Fuzz.checkpoint_schedule ~attack ~width:0.03 times in
  M.run ~board ~image ~meta { base_opts with M.schedule }

let test_nvp_corrupts_under_attack () =
  let o = corruptions_under_checkpoint_attack Core.Scheme.Nvp in
  Alcotest.(check bool)
    (Printf.sprintf "NVP corruptions > 0 (got %d)" o.M.corruptions)
    true (o.M.corruptions > 0)

let test_gecko_resists_attack () =
  let o = corruptions_under_checkpoint_attack Core.Scheme.Gecko in
  Alcotest.(check int) "GECKO corruptions" 0 o.M.corruptions;
  Alcotest.(check bool)
    (Printf.sprintf "GECKO detections > 0 (got %d)" o.M.detections)
    true (o.M.detections > 0)

(* {1 Sabotage acceptance: a broken scheme variant is caught and shrunk}

   Collapse every checkpoint-slot colour to 0 (instructions and restore
   metadata): span-adjacent boundaries now share (reg, colour) slots, so
   a collapse between a boundary and its re-execution restores a stale
   register.  The explorer must find it and the shrinker must reduce the
   reproducer to at most 10 instructions of replayable OCaml. *)

let acc_loop () =
  let b = Builder.program "acc" in
  let d = Builder.space b "d" ~words:2 () in
  let acc = Reg.r1 and i = Reg.r2 and t = Reg.r3 in
  Builder.func b "main";
  Builder.block b "entry";
  Builder.li b acc 0;
  Builder.li b i 8;
  Builder.block b "loop" ~loop_bound:8;
  Builder.add b acc acc (Builder.reg i);
  Builder.st b (Builder.at d 0) acc;
  Builder.sub b i i (Builder.imm 1);
  Builder.bin b Instr.Slt t i (Builder.imm 1);
  Builder.br b Instr.Z t "loop" "fin";
  Builder.block b "fin";
  Builder.halt b;
  Builder.finish b

let sabotage_colors p meta =
  let p = Core.Copy.program p in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.Cfg.instrs <-
            List.map
              (function
                | Instr.Ckpt (r, _) -> Instr.Ckpt (r, 0)
                | Instr.LdSlot (d, s, _) -> Instr.LdSlot (d, s, 0)
                | i -> i)
              blk.Cfg.instrs)
        f.Cfg.blocks)
    p.Cfg.funcs;
  let infos = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k (bi : Core.Meta.binfo) ->
      Hashtbl.replace infos k
        {
          bi with
          Core.Meta.restores =
            List.map
              (fun r -> { r with Core.Meta.r_color = 0 })
              bi.Core.Meta.restores;
        })
    meta.Core.Meta.infos;
  (p, { meta with Core.Meta.infos })

let test_sabotaged_coloring_caught_and_shrunk () =
  let board = fi_board () in
  let p, meta =
    Core.Pipeline.compile ~budget_cycles:80 Core.Scheme.Gecko (acc_loop ())
  in
  (* Control: the honestly compiled program survives every site. *)
  let r0 =
    FI.Explore.explore ~jobs:2 ~budget:400 ~board ~image:(Link.link p) ~meta ()
  in
  Alcotest.(check int) "clean variant has no failures" 0
    (List.length r0.FI.Explore.failures);
  let p', meta' = sabotage_colors p meta in
  let r =
    FI.Explore.explore ~jobs:2 ~budget:400 ~board ~image:(Link.link p')
      ~meta:meta' ()
  in
  match r.FI.Explore.failures with
  | [] -> Alcotest.fail "explorer missed the sabotaged colouring"
  | f :: _ ->
      let check =
        FI.Shrink.default_check
          ~compile:(fun q -> (Link.link q, meta'))
          ~board
          ~opts:{ FI.Explore.default_opts with M.max_sim_time = 0.5 }
          ()
      in
      let repro =
        FI.Shrink.shrink ~check
          {
            FI.Shrink.r_prog = p';
            r_schedule = Schedule.empty;
            r_fires = f.FI.Explore.f_fires;
          }
      in
      let n = FI.Shrink.instr_count repro in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk reproducer has <= 10 instructions (got %d)" n)
        true (n <= 10);
      Alcotest.(check bool) "shrunk reproducer still fails" true (check repro);
      let src = FI.Shrink.to_ocaml repro in
      Alcotest.(check bool) "reproducer prints replayable OCaml" true
        (String.length src > 0
        && String.sub src 0 11 = "let program")

(* {1 Prefix sharing}

   Replays fork from snapshots of the uninjected run instead of re-running
   the prefix from power-on, and finish on block dispatch once their last
   fire has been consulted.  The references below are the from-scratch
   loops the explorer used before (every replay from power-on, every step
   on the checked path), kept here only as differential oracles. *)

module Rng = Gecko_util.Rng

let ref_run_with_fires ~board ~image ~meta opts ~fires =
  let n = ref 0 in
  let h = M.Step.start ~board ~image ~meta opts in
  M.Step.set_injector h
    (Some
       (fun _ ->
         let i = !n in
         incr n;
         List.mem i fires));
  while M.Step.step h do () done;
  (M.Step.outcome h, M.Step.nvm_data h)

let ref_pick_targets (sites : FI.Inject.site array) ~budget =
  let protocol, instrs =
    Array.to_list sites
    |> List.partition (fun s -> s.FI.Inject.s_kind <> FI.Inject.K_instr)
  in
  let stride_sample xs n =
    let len = List.length xs in
    if len <= n then (xs, 1)
    else
      let stride = (len + n - 1) / n in
      (List.filteri (fun i _ -> i mod stride = 0) xs, stride)
  in
  let n_proto = List.length protocol in
  if n_proto >= budget then (fst (stride_sample protocol budget), false, 0)
  else
    let picked, stride = stride_sample instrs (budget - n_proto) in
    (protocol @ picked, true, stride)

let ref_explore ~budget ~pairs ~seed ~board ~image ~meta =
  let opts = FI.Explore.default_opts in
  let golden_nvm, golden_io = FI.Explore.golden ~board ~image ~meta () in
  let oracle (o, nvm) = FI.Explore.oracle ~golden_nvm ~golden_io o ~nvm in
  let sites, base_outcome, base_nvm = FI.Inject.census ~board ~image ~meta opts in
  let by_kind = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let k = FI.Inject.kind_name s.FI.Inject.s_kind in
      Hashtbl.replace by_kind k
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k)))
    sites;
  let targets, event_sites_covered, instr_stride =
    ref_pick_targets sites ~budget
  in
  let rng = Rng.create seed in
  let n_sites = Array.length sites in
  let pair_fires =
    if pairs <= 0 || n_sites < 2 then []
    else
      List.init pairs (fun _ ->
          let i = Rng.int rng n_sites in
          let j = Rng.int rng n_sites in
          let a, b = (min i j, max i j) in
          if a = b then [ a; b + 1 ] else [ a; b ])
  in
  let failures =
    List.filter_map
      (fun fires ->
        match oracle (ref_run_with_fires ~board ~image ~meta opts ~fires) with
        | Ok () -> None
        | Error f_detail ->
            let f_kind, f_time =
              let o = List.hd fires in
              if o < n_sites then
                ( FI.Inject.kind_name sites.(o).FI.Inject.s_kind,
                  sites.(o).FI.Inject.s_time )
              else ("instr", 0.)
            in
            Some { FI.Explore.f_fires = fires; f_kind; f_time; f_detail })
      (List.map (fun s -> [ s.FI.Inject.s_ordinal ]) targets @ pair_fires)
  in
  {
    FI.Explore.sites_total = n_sites;
    sites_by_kind =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []);
    explored = List.length targets;
    explored_pairs = List.length pair_fires;
    event_sites_covered;
    instr_stride;
    failures;
    baseline_ok = Result.is_ok (oracle (base_outcome, base_nvm));
  }

let test_explore_matches_reference () =
  let cases =
    List.map (fun w -> (Core.Scheme.Gecko, w)) W.Workload.names
    @ List.map (fun w -> (Core.Scheme.Nvp, w)) nvp_failing
  in
  List.iter
    (fun (scheme, w) ->
      let image, meta = compile scheme w in
      let board = fi_board () in
      let budget = 256 and pairs = 16 and seed = 3 in
      let r = FI.Explore.explore ~jobs:2 ~budget ~pairs ~seed ~board ~image ~meta () in
      let tag = Printf.sprintf "%s/%s" (Core.Scheme.to_string scheme) w in
      if r <> ref_explore ~budget ~pairs ~seed ~board ~image ~meta then
        Alcotest.failf "%s: explorer report differs from the from-scratch reference" tag;
      Alcotest.(check bool)
        (tag ^ " failures as pinned")
        (scheme = Core.Scheme.Nvp)
        (r.FI.Explore.failures <> []))
    cases

(* Fork an uninjected run at a random step boundary k no later than the
   first fire's step, drive the fork, and compare with the power-on
   replay and with the from-scratch reference: outcome and final NVM. *)
let prop_fork_equals_power_on =
  QCheck.Test.make ~count:40
    ~name:"fork at any step plus the driver equals power-on"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 99999))
    (fun seed ->
      let rng = Rng.create seed in
      let scheme =
        List.nth
          [ Core.Scheme.Nvp; Core.Scheme.Ratchet; Core.Scheme.Gecko_noprune;
            Core.Scheme.Gecko ]
          (seed mod 4)
      in
      let p, meta = Core.Pipeline.compile scheme (Gen_prog.generate_mixed seed) in
      let image = Link.link p in
      let board =
        if seed mod 2 = 0 then fi_board ()
        else
          { (fi_board ()) with
            Board.monitor_choice = Gecko_devices.Device.Use_comparator }
      in
      let opts = { FI.Explore.default_opts with M.max_sim_time = 1.0 } in
      let sites, _, _ = FI.Inject.census ~board ~image ~meta opts in
      let n_sites = Array.length sites in
      let fires =
        List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng (n_sites + 3))
      in
      let first = List.fold_left min max_int fires in
      let first_step =
        if first < n_sites then sites.(first).FI.Inject.s_step
        else if n_sites = 0 then 0
        else sites.(n_sites - 1).FI.Inject.s_step
      in
      let k = Rng.int rng (first_step + 1) in
      let h = M.Step.start ~board ~image ~meta opts in
      let n = ref 0 in
      M.Step.set_injector h (Some (fun _ -> incr n; false));
      for _ = 1 to k do ignore (M.Step.step h) done;
      let forked = FI.Inject.drive (M.Step.fork h) ~consulted:!n ~fires in
      let power_on = FI.Inject.run_with_fires ~board ~image ~meta opts ~fires in
      forked = power_on
      && power_on = ref_run_with_fires ~board ~image ~meta opts ~fires)

(* The run a snapshot pass forks from must not share mutable state with
   its forks: drive a collapse through a fork every 97 steps, then finish
   the template and compare it with the census run. *)
let test_template_survives_forks () =
  let image, meta = compile Core.Scheme.Gecko "qsort" in
  let board = fi_board () in
  let opts = FI.Explore.default_opts in
  let _, census_o, census_nvm = FI.Inject.census ~board ~image ~meta opts in
  let h = M.Step.start ~board ~image ~meta opts in
  let n = ref 0 and k = ref 0 and forks = ref 0 in
  M.Step.set_injector h (Some (fun _ -> incr n; false));
  while M.Step.step h do
    incr k;
    if !k mod 97 = 0 then begin
      incr forks;
      ignore (FI.Inject.drive (M.Step.fork h) ~consulted:!n ~fires:[ !n; !n + 5 ])
    end
  done;
  Alcotest.(check bool) (Printf.sprintf "many forks (%d)" !forks) true (!forks > 20);
  Alcotest.(check bool) "template outcome is the census outcome" true
    (M.Step.outcome h = census_o);
  Alcotest.(check (array int)) "template NVM is the census NVM" census_nvm
    (M.Step.nvm_data h)

(* A fork copies the metrics registry and the flight recorder: the copy
   records on from the template's observations, and the template's own
   observers stay exactly as they were however far the copy runs.  A
   trace cannot be split and is still refused. *)
let test_fork_copies_observers () =
  let image, meta = compile Core.Scheme.Gecko "crc16" in
  let board = fi_board () in
  let o = FI.Explore.default_opts in
  let reg = Gecko_obs.Metrics.create () and fl = Gecko_obs.Flight.create () in
  let h =
    M.Step.start ~board ~image ~meta
      { o with M.metrics = Some reg; flight = Some fl }
  in
  (* Step this starved board to its first JIT checkpoint. *)
  let ckpt = Gecko_obs.Metrics.histogram reg "machine.jit_checkpoint_isr_s" in
  while Gecko_obs.Metrics.hist_count ckpt = 0 && M.Step.step h do
    ()
  done;
  let persist r = Gecko_obs.Json.to_string (Gecko_obs.Metrics.to_persist r) in
  let reg_before = persist reg and fl_before = Gecko_obs.Flight.to_string fl in
  Alcotest.(check bool) "the template observed a checkpoint mid-run" true
    (Gecko_obs.Metrics.hist_count ckpt > 0 && not (M.Step.finished h));
  let c = M.Step.fork h in
  let c_reg = Option.get (M.Step.metrics c) in
  let c_fl = Option.get (M.Step.flight c) in
  Alcotest.(check bool) "the fork owns a distinct registry" true (c_reg != reg);
  Alcotest.(check bool) "the fork owns a distinct recorder" true (c_fl != fl);
  Alcotest.(check string) "the registry copy starts equal" reg_before
    (persist c_reg);
  Alcotest.(check string) "the recorder copy starts equal" fl_before
    (Gecko_obs.Flight.to_string c_fl);
  while M.Step.step_block c do
    ()
  done;
  ignore (M.Step.outcome c);
  Alcotest.(check bool) "the fork recorded on" true
    (persist c_reg <> reg_before && Gecko_obs.Flight.to_string c_fl <> fl_before);
  Alcotest.(check string) "the template's registry is untouched" reg_before
    (persist reg);
  Alcotest.(check string) "the template's recorder is untouched" fl_before
    (Gecko_obs.Flight.to_string fl);
  let refused opts =
    let h = M.Step.start ~board ~image ~meta opts in
    ignore (M.Step.step h);
    match M.Step.fork h with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "plain handle forks" false (refused o);
  Alcotest.(check bool) "trace refused" true
    (refused { o with M.trace = Some (Gecko_obs.Trace.create ()) });
  (* The explorer still refuses every observer: its replays fork, and a
     caller's registry or recorder would see only the uninjected pass. *)
  List.iter
    (fun (what, opts) ->
      match
        FI.Explore.explore ~jobs:1 ~budget:4 ~opts ~board ~image ~meta ()
      with
      | _ -> Alcotest.failf "explore accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("a trace", { o with M.trace = Some (Gecko_obs.Trace.create ()) });
      ("a metrics registry", { o with M.metrics = Some (Gecko_obs.Metrics.create ()) });
      ("a flight recorder", { o with M.flight = Some (Gecko_obs.Flight.create ()) });
    ]

(* A program that never halts has no golden run: [golden] rejects it as
   invalid input (which `gecko fuzz` reports with exit 1) and says how
   much simulated time it was given. *)
let nohalt_gasm =
  ".program nohalt\n.space buf 1\n.func main\nentry:\n  li r0, 0\n\
   loop [8]:\n  st buf[0], r0\n  add r0, r0, 1\n  slt r3, r0, 0\n\
  \  br.z r3, loop, fin\nfin:\n  halt\n"

let test_golden_never_halts () =
  let prog =
    match Asm.parse nohalt_gasm with Ok p -> p | Error e -> Alcotest.fail e
  in
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko prog in
  match
    FI.Explore.golden ~max_sim_time:0.002 ~board:(fi_board ())
      ~image:(Link.link p) ~meta ()
  with
  | _ -> Alcotest.fail "golden completed a program that never halts"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "message"
        "faultinject: the golden run did not complete within 0.002 s of \
         simulated time on continuous power"
        msg

let () =
  Alcotest.run "faultinject"
    [
      ( "explorer-sweep",
        [
          Alcotest.test_case "ratchet clean everywhere" `Quick
            (test_sweep Core.Scheme.Ratchet);
          Alcotest.test_case "nvp landscape" `Quick
            (test_sweep Core.Scheme.Nvp);
          Alcotest.test_case "gecko landscape" `Quick
            (test_sweep Core.Scheme.Gecko);
          Alcotest.test_case "blink io_log intact" `Quick
            test_blink_io_log_intact;
          Alcotest.test_case "formerly-defective workloads, k=2 pairs" `Quick
            test_formerly_failing_pairs;
          Alcotest.test_case "gecko landscape, speculative mode" `Quick
            test_speculative_sweep;
        ] );
      ( "explorer-mechanics",
        [
          Alcotest.test_case "census is deterministic" `Quick
            test_census_deterministic;
          Alcotest.test_case "k=2 pairs explored" `Quick test_pairs_explored;
          Alcotest.test_case "golden run never completes" `Quick
            test_golden_never_halts;
        ] );
      ( "prefix-sharing",
        [
          Alcotest.test_case "explore equals the from-scratch reference" `Quick
            test_explore_matches_reference;
          QCheck_alcotest.to_alcotest prop_fork_equals_power_on;
          Alcotest.test_case "template unchanged by its forks" `Quick
            test_template_survives_forks;
          Alcotest.test_case "fork copies observers" `Quick
            test_fork_copies_observers;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "deterministic for a seed" `Quick
            test_fuzz_deterministic;
        ] );
      ( "corruptions-regression",
        [
          Alcotest.test_case "nvp corrupts under checkpoint attack" `Quick
            test_nvp_corrupts_under_attack;
          Alcotest.test_case "gecko detects instead of corrupting" `Quick
            test_gecko_resists_attack;
        ] );
      ( "sabotage",
        [
          Alcotest.test_case "broken colouring caught and shrunk" `Quick
            test_sabotaged_coloring_caught_and_shrunk;
        ] );
    ]
