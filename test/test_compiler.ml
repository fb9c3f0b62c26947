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
    Core.Mode.[ Legacy; Sound; Speculative ];
  parses "spec" Core.Mode.Speculative;
  Alcotest.(check bool) "precise is not a mode" true
    (Core.Mode.of_string "precise" = None)


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

(* Recovery slices re-execute cleanly through the machine. *)
let test_budget_too_small () =
  match Core.Pipeline.compile ~budget_cycles:4 Core.Scheme.Gecko (sum_program ()) with
  | exception Invalid_argument _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected budget failure"

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
        ] );
    ]
