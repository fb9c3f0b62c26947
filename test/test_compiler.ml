open Gecko_isa
module B = Builder
module Core = Gecko_core

(* Sum an array into memory, with a WAR on the accumulator cell. *)
let sum_program () =
  let b = B.program "sum" in
  let data = B.space b "data" ~words:16 ~init:(Array.init 16 (fun i -> i + 1)) () in
  let acc = B.space b "acc" ~words:1 () in
  let coeff = B.space b "coeff" ~words:2 ~init:[| 3; 5 |] () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  (* i *)
  B.li b Reg.r1 0;
  B.st b (B.at acc 0) Reg.r1;
  (* Prunable live-ins: a constant bound and a read-only coefficient. *)
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

let test_formation () =
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  Alcotest.(check bool)
    "has boundaries" true
    (Core.Pipeline.boundary_count p > 0);
  Alcotest.(check (list string)) "idempotent" [] (Core.Regions.violations p);
  Alcotest.(check bool)
    "has checkpoints" true
    (Core.Pipeline.checkpoint_store_count p > 0);
  Format.printf "stats: %a@." Core.Meta.pp_stats meta.Core.Meta.stats

let test_schemes_compile () =
  List.iter
    (fun s ->
      let p, _ = Core.Pipeline.compile s (sum_program ()) in
      match Cfg.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scheme %s: %s" (Core.Scheme.to_string s) e)
    Core.Scheme.all

let test_pruning_happens () =
  let _, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  let s = meta.Core.Meta.stats in
  Alcotest.(check bool) "some pruning" true (s.Core.Meta.pruned > 0)

(* The CLI parses --mode through [Mode.of_string], so the list of modes
   lives in one place. *)
let test_mode_names () =
  let parses s m =
    Alcotest.(check bool) (Printf.sprintf "%S parses" s) true
      (match Core.Mode.of_string s with
      | Some m' -> Core.Mode.equal m m'
      | None -> false)
  in
  List.iter
    (fun m -> parses (Core.Mode.to_string m) m)
    Core.Mode.[ Legacy; Speculative ];
  parses "spec" Core.Mode.Speculative;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " is not a mode") true
        (Core.Mode.of_string s = None))
    [ "precise"; "sound" ]


(* ------------------------------------------------------------------ *)
(* Targeted pass-level tests                                           *)
(* ------------------------------------------------------------------ *)

module A = Gecko_analysis

let count_boundaries p = Core.Pipeline.boundary_count p

(* WAR: a load followed by an aliasing store needs a boundary between. *)
let test_war_cut () =
  let b = B.program "war" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.ld b Reg.r0 (B.at d 0);
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.st b (B.at d 0) Reg.r0;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  Alcotest.(check (list string)) "no violations" [] (Core.Regions.violations p);
  let f = Cfg.find_func p "main" in
  let blk = Cfg.find_block f "e" in
  (* The block must contain a boundary between the ld and the st. *)
  let rec scan saw_ld saw_boundary = function
    | [] -> Alcotest.fail "no store found"
    | Instr.Ld _ :: rest -> scan true saw_boundary rest
    | Instr.Boundary _ :: rest -> scan saw_ld (saw_boundary || saw_ld) rest
    | Instr.St _ :: _ ->
        Alcotest.(check bool) "boundary before store" true saw_boundary
    | _ :: rest -> scan saw_ld saw_boundary rest
  in
  scan false false blk.Cfg.instrs

(* WARAW: st x; ld x; st x in one block needs no cut (must-alias). *)
let test_waraw_exempt () =
  let b = B.program "waraw" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.st b (B.at d 0) Reg.r0;
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  (* Only the function-entry boundary. *)
  Alcotest.(check int) "single boundary" 1 (count_boundaries p);
  Alcotest.(check (list string)) "still idempotent" [] (Core.Regions.violations p)

(* A may-aliasing (dynamic) store does NOT exempt the pair. *)
let test_may_alias_not_exempt () =
  let b = B.program "maywar" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.li b Reg.r2 3;
  B.st b (B.idx d Reg.r2) Reg.r0;
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  Alcotest.(check bool) "extra cut inserted" true (count_boundaries p >= 2);
  Alcotest.(check (list string)) "idempotent" [] (Core.Regions.violations p)

(* I/O instructions are bracketed by boundaries. *)
let test_io_bracketing () =
  let b = B.program "io" in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.io_out b 0 Reg.r0;
  B.nop b;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  let f = Cfg.find_func p "main" in
  let blk = Cfg.find_block f "e" in
  let arr = Array.of_list blk.Cfg.instrs in
  Array.iteri
    (fun i ins ->
      if Instr.is_io ins then begin
        Alcotest.(check bool) "boundary before io" true
          (i > 0 && (match arr.(i - 1) with Instr.Boundary _ -> true | _ -> false));
        Alcotest.(check bool) "boundary after io" true
          (i + 1 < Array.length arr
          && (match arr.(i + 1) with Instr.Boundary _ -> true | _ -> false))
      end)
    arr

(* WCET splitting cuts an oversized straight-line region. *)
let test_wcet_split () =
  let b = B.program "long" in
  B.func b "main";
  B.block b "e";
  for i = 0 to 199 do
    B.li b Reg.r0 i
  done;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  let before = count_boundaries p in
  ignore (Core.Split.by_wcet ~next_id ~budget:50 ~ckpt_overhead:10 p);
  Alcotest.(check bool) "splits inserted" true (count_boundaries p > before);
  Alcotest.(check bool) "spans fit" true (Core.Split.max_span p <= 50)

(* Pruning: constants and read-only loads are sliced; loop-carried state
   is kept; loop-invariant values are reused. *)
let test_prune_decisions () =
  let _, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  let s = meta.Core.Meta.stats in
  Alcotest.(check bool) "some slices" true (s.Core.Meta.recovery_blocks > 0);
  Alcotest.(check bool) "accounting" true
    (s.Core.Meta.kept + s.Core.Meta.pruned = s.Core.Meta.candidates)

(* Colouring repair on call-bearing programs whose main-loop counter is
   live across calls: repairing after the newest repair boundary only
   carries the same odd cycle onto the next one, so the repair must
   move to another node of the cycle for the rounds to converge, in
   both modes. *)
let test_coloring_converges_with_calls () =
  List.iter
    (fun seed ->
      List.iter
        (fun mode ->
          let p, meta =
            Core.Pipeline.compile ~mode Core.Scheme.Gecko
              (Gen_prog.generate ~calls:true seed)
          in
          match Core.Verify.coloring p meta with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "seed %d: %s" seed (String.concat "; " e))
        [ Core.Mode.Legacy; Core.Mode.Speculative ])
    [ 272; 1241 ]

(* Coloring: a loop header's checkpoints get a repair partner with
   alternating colours. *)
let test_coloring_alternates () =
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  (match Core.Verify.coloring p meta with
  | Ok () -> ()
  | Error e -> Alcotest.failf "coloring: %s" (String.concat "; " e));
  (* The loop-carried registers must be stored at two alternating sites. *)
  let stores = Hashtbl.create 8 in
  Cfg.iter_instrs p (fun i ->
      match i with
      | Instr.Ckpt (r, c) ->
          let old = try Hashtbl.find stores (Reg.to_int r) with Not_found -> [] in
          Hashtbl.replace stores (Reg.to_int r) (c :: old)
      | _ -> ());
  let carried = Hashtbl.find stores 0 (* r0 = loop counter *) in
  Alcotest.(check bool) "two sites with both colours" true
    (List.mem 0 carried && List.mem 1 carried)

(* Colouring rules on hand-built loops.  Every [Nop] stands for a
   boundary: [number_boundaries] turns the k-th one (in block order) into
   [Boundary k].  [color ~keeps p] then runs the colouring loop with a
   pruning stand-in: boundary [bid] stores the live-ins [keeps bid r]
   selects, a repair boundary exactly the registers it is forced to keep,
   and nothing else is stored.  It returns the round count and the
   registers of every repair, so "no repair" reads as one round. *)
let number_boundaries p =
  let k = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (blk : Cfg.block) ->
          blk.Cfg.instrs <-
            List.map
              (function
                | Instr.Nop ->
                    incr k;
                    Instr.Boundary (!k - 1)
                | i -> i)
              blk.Cfg.instrs)
        f.Cfg.blocks)
    p.Cfg.funcs;
  p

let first_repair = 100

let color ?(keeps = fun _ _ -> true) p =
  let analyze ~force_keep _p (cands : Core.Candidates.t) =
    let decisions = Hashtbl.create 8 in
    List.iter
      (fun (s : Core.Candidates.site) ->
        let bid = s.Core.Candidates.s_id in
        Hashtbl.replace decisions bid
          (List.map
             (fun r ->
               if
                 Reg.Set.mem r (force_keep bid)
                 || (bid < first_repair && keeps bid r)
               then (r, Core.Prune.Keep)
               else (r, Core.Prune.Reuse 0))
             (Reg.Set.elements s.Core.Candidates.s_live)))
      cands.Core.Candidates.sites;
    decisions
  in
  let out =
    Core.Coloring.assign ~next_id:(ref first_repair) ~analyze
      (number_boundaries p)
  in
  let repairs =
    Hashtbl.fold
      (fun bid ds acc ->
        if bid < first_repair then acc
        else
          List.filter_map
            (fun (r, d) ->
              match d with Core.Prune.Keep -> Some (Reg.to_string r) | _ -> None)
            ds
          @ acc)
      out.Core.Coloring.decisions []
  in
  (out.Core.Coloring.rounds, List.sort compare repairs)

let check_repairs name ~rounds ~regs (r, rs) =
  Alcotest.(check int) (name ^ ": rounds") rounds r;
  Alcotest.(check (list string)) (name ^ ": repaired registers") regs rs

(* A counted loop whose header boundary (0) precedes the body's only
   definition of r0 and whose body boundary (1) stores r0.  [header_use]
   decides whether r0 is live at the header: dead when the body sets it
   afresh ([li]), live when it increments it ([add]). *)
let header_loop ~header_use =
  let b = B.program "hdr" in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 4;
  B.block b "hdr" ~loop_bound:4;
  B.nop b;
  (if header_use then B.add b Reg.r0 Reg.r0 (B.imm 1) else B.li b Reg.r0 7);
  B.nop b;
  B.sub b Reg.r1 Reg.r1 (B.reg Reg.r0);
  B.br b Instr.Nz Reg.r1 "hdr" "exit_";
  B.block b "exit_";
  B.halt b;
  B.finish b

(* Rule 1: r0's span from the body boundary ends at the header, where r0
   is dead, so the back edge makes no self-loop and nothing is
   repaired. *)
let test_dead_header_ends_span () =
  check_repairs "r0 dead at the header" ~rounds:1 ~regs:[]
    (color (header_loop ~header_use:false))

(* Negative control: with r0 live at the header (which reuses rather than
   stores it), the span runs on through the header to the body store
   after the increment — an odd cycle, repaired for r0 alone. *)
let test_live_header_keeps_edge () =
  check_repairs "r0 live and reused at the header" ~rounds:2 ~regs:[ "r0" ]
    (color
       ~keeps:(fun bid r -> not (bid = 0 && Reg.equal r Reg.r0))
       (header_loop ~header_use:true))

(* An outer loop redefines r2 in its latch; an inner loop reads it.  Only
   r2 is stored: at the outer header (boundary 0) and at the inner header
   (boundary 1), which is self-adjacent through the inner back edge.
   [inner_def] adds a path through the inner body that redefines r2. *)
let nested_loops ~inner_def =
  let b = B.program "nest" in
  let d = B.space b "d" ~words:1 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r2 0;
  B.li b Reg.r3 3;
  B.block b "outer" ~loop_bound:3;
  B.nop b;
  B.li b Reg.r4 4;
  B.block b "inner" ~loop_bound:4;
  B.nop b;
  B.add b Reg.r5 Reg.r2 (B.reg Reg.r4);
  B.st b (B.at d 0) Reg.r5;
  B.br b Instr.Z Reg.r5 "bump" "next";
  B.block b "bump";
  if inner_def then B.add b Reg.r2 Reg.r2 (B.imm 1) else B.mov b Reg.r6 Reg.r5;
  B.block b "next";
  B.sub b Reg.r4 Reg.r4 (B.imm 1);
  B.br b Instr.Nz Reg.r4 "inner" "latch";
  B.block b "latch";
  B.add b Reg.r2 Reg.r2 (B.imm 1);
  B.sub b Reg.r3 Reg.r3 (B.imm 1);
  B.br b Instr.Nz Reg.r3 "outer" "exit_";
  B.block b "exit_";
  B.halt b;
  B.finish b

let only_r2 _ r = Reg.equal r Reg.r2

(* Rule 2: the latch's redefinition lies beyond the outer header's store,
   so no path of the inner header's self-span defines r2 and the
   self-loop is exempt. *)
let test_invariant_self_span_exempt () =
  check_repairs "r2 redefined only beyond the outer store" ~rounds:1
    ~regs:[] (color ~keeps:only_r2 (nested_loops ~inner_def:false))

(* Negative control: one inner path redefines r2, so the self-loop is a
   real conflict and r2 is repaired. *)
let test_redefining_path_loses_exemption () =
  check_repairs "r2 redefined on one inner path" ~rounds:2 ~regs:[ "r2" ]
    (color ~keeps:only_r2 (nested_loops ~inner_def:true))

(* Recovery slices re-execute cleanly through the machine. *)
let test_budget_too_small () =
  match Core.Pipeline.compile ~budget_cycles:4 Core.Scheme.Gecko (sum_program ()) with
  | exception Invalid_argument _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected budget failure"

(* Listings: the compiler's output for every workload under every build,
   pinned as a digest of the .gasm text plus the speculation guards.  A
   change that should not move compiler output must leave these alone. *)
let builds =
  [
    ("ratchet", Core.Scheme.Ratchet);
    ("gecko-noprune", Core.Scheme.Gecko_noprune);
    ("gecko", Core.Scheme.Gecko);
  ]

let expected_listings =
  [
    ("basicmath", "ratchet", "d916179b9138373fdc0b4fe6c21df6fc");
    ("basicmath", "gecko-noprune", "63a6c86e56ee25b946434ae3bad1e9a4");
    ("basicmath", "gecko", "717e2e352f8dec4d3c3ad65e920ef50f");
    ("bitcnt", "ratchet", "d9024b570f9f9f62866690296ca02249");
    ("bitcnt", "gecko-noprune", "4f903f1491b07897b740b80a5ba45923");
    ("bitcnt", "gecko", "05c6c2c412ca4d9abebd4982c03fdad8");
    ("blink", "ratchet", "52357a19b8cbfb7d48d687b5117b88be");
    ("blink", "gecko-noprune", "a276f4b0a4b9574ee8405dc7442ac636");
    ("blink", "gecko", "7aa660b0867087f37baf12dfdbcd5dc7");
    ("crc16", "ratchet", "f4958a3f43e27ca1b88bfb51291461a8");
    ("crc16", "gecko-noprune", "99e1fd2651eac00249148e597dd41825");
    ("crc16", "gecko", "ef4f89740651d0a1b3862ef6538dead9");
    ("crc32", "ratchet", "ecf19a3ff83c1aad5970ff10f081e09b");
    ("crc32", "gecko-noprune", "5f51c1b68a58fad0f7c93fe377133367");
    ("crc32", "gecko", "c1f09e898dbd39543849cfc3d6b81eb6");
    ("dhrystone", "ratchet", "f4ee9246812e8b22e9aa062740ae7415");
    ("dhrystone", "gecko-noprune", "c5c3a55cf3f4da36424ffff85ae87ac1");
    ("dhrystone", "gecko", "e200aa2ff2a6ae778361805af1953f55");
    ("dijkstra", "ratchet", "242a3cd759b0873ec28aa9d563d41d82");
    ("dijkstra", "gecko-noprune", "514ed644b166023be2cc7f2429c14a1d");
    ("dijkstra", "gecko", "3c9929f0578297d88c3d3474b397de55");
    ("fft", "ratchet", "ddb5e9603a9ded1ed7d88cf30eed3692");
    ("fft", "gecko-noprune", "e31782f0da707b6c6a4e2a8048e36491");
    ("fft", "gecko", "a6bbf7dfae253a16bdd4e0d62797f3b6");
    ("fir", "ratchet", "0ba76002caccce13bf1f991ac16d18be");
    ("fir", "gecko-noprune", "dcdc16c3fc66558c6b2520723a6140ec");
    ("fir", "gecko", "7dd4c1eb6a3f889c46c96a1978288f5e");
    ("qsort", "ratchet", "1478c62630c984a53e3d8cbfe1027f6e");
    ("qsort", "gecko-noprune", "9aa39fe4c0b367c78e7d2505779a0de4");
    ("qsort", "gecko", "456cd7c54cb1170d91239ae8e823a4e0");
    ("stringsearch", "ratchet", "a2ff0fdadee95523f7c8f0693be8584e");
    ("stringsearch", "gecko-noprune", "fdae966649fc1d656dfc6379bc929517");
    ("stringsearch", "gecko", "fdae966649fc1d656dfc6379bc929517");
  ]

let listing_digest (p, (meta : Core.Meta.t)) =
  let guards =
    List.map (fun (f, l, i) -> Printf.sprintf "%s:%s:%d" f l i) meta.Core.Meta.guards
  in
  Digest.to_hex (Digest.string (Asm.to_string p ^ "\n" ^ String.concat ";" guards))

let test_listings () =
  let actual =
    List.concat_map
      (fun name ->
        let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
        List.map
          (fun (slug, scheme) ->
            (name, slug, listing_digest (Core.Pipeline.compile scheme src)))
          builds)
      Gecko_workloads.Workload.names
  in
  Alcotest.(check (list (triple string string string))) "digests" expected_listings actual

(* The colouring loop's round count (one per repair, plus the final
   successful colouring) is deterministic, so it is pinned exactly. *)
let coloring_rounds builds names =
  let reg = Gecko_obs.Metrics.create () in
  List.iter
    (fun name ->
      let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
      List.iter
        (fun (scheme, mode) -> ignore (Core.Pipeline.compile ~metrics:reg ~mode scheme src))
        builds)
    names;
  Gecko_obs.Metrics.counter_value
    (Gecko_obs.Metrics.counter reg "pipeline.coloring.rounds")

let test_coloring_rounds () =
  Alcotest.(check int) "suite: noprune, gecko" 87
    (coloring_rounds
       [
         (Core.Scheme.Gecko_noprune, Core.Mode.default);
         (Core.Scheme.Gecko, Core.Mode.default);
       ]
       Gecko_workloads.Workload.names);
  Alcotest.(check int) "qsort: 8 repairs" 9
    (coloring_rounds [ (Core.Scheme.Gecko, Core.Mode.default) ] [ "qsort" ]);
  Alcotest.(check int) "ratchet colours nothing" 0
    (coloring_rounds [ (Core.Scheme.Ratchet, Core.Mode.default) ] [ "qsort" ])

(* Suite totals of the default GECKO build's instrumentation: boundaries,
   static checkpoint stores and speculation guards.  Exact counts, so a
   colouring or pruning change moves a deterministic number rather than
   only a wall clock. *)
let test_instrumentation_totals () =
  let totals =
    List.fold_left
      (fun (nb, ns, ng) name ->
        let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
        let p, meta = Core.Pipeline.compile Core.Scheme.Gecko src in
        ( nb + Core.Pipeline.boundary_count p,
          ns + Core.Pipeline.checkpoint_store_count p,
          ng + List.length meta.Core.Meta.guards ))
      (0, 0, 0) Gecko_workloads.Workload.names
  in
  Alcotest.(check (triple int int int))
    "boundaries, checkpoint stores, guards" (107, 164, 3) totals

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "formation" `Quick test_formation;
          Alcotest.test_case "all schemes" `Quick test_schemes_compile;
          Alcotest.test_case "pruning" `Quick test_pruning_happens;
          Alcotest.test_case "mode names" `Quick test_mode_names;
        ] );
      ( "regions",
        [
          Alcotest.test_case "WAR cut" `Quick test_war_cut;
          Alcotest.test_case "WARAW exemption" `Quick test_waraw_exempt;
          Alcotest.test_case "may-alias not exempt" `Quick test_may_alias_not_exempt;
          Alcotest.test_case "I/O bracketing" `Quick test_io_bracketing;
        ] );
      ("wcet", [ Alcotest.test_case "splitting" `Quick test_wcet_split;
                 Alcotest.test_case "budget too small" `Quick test_budget_too_small ]);
      ( "checkpointing",
        [
          Alcotest.test_case "prune decisions" `Quick test_prune_decisions;
          Alcotest.test_case "coloring alternates" `Quick test_coloring_alternates;
          Alcotest.test_case "coloring converges with calls" `Quick
            test_coloring_converges_with_calls;
        ] );
      ( "colouring rules",
        [
          Alcotest.test_case "dead header ends the span" `Quick
            test_dead_header_ends_span;
          Alcotest.test_case "live header keeps the edge" `Quick
            test_live_header_keeps_edge;
          Alcotest.test_case "invariant self-span is exempt" `Quick
            test_invariant_self_span_exempt;
          Alcotest.test_case "redefining path loses the exemption" `Quick
            test_redefining_path_loses_exemption;
        ] );
      ( "listings",
        [
          Alcotest.test_case "gasm and guard digests" `Quick test_listings;
          Alcotest.test_case "colouring rounds" `Quick test_coloring_rounds;
          Alcotest.test_case "instrumentation totals" `Quick
            test_instrumentation_totals;
        ] );
    ]
