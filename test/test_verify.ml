(* Unit tests for the compiler's final verification passes
   (Gecko_core.Verify): each pass gets a positive control (a pipeline
   compile must satisfy it) and a hand-built or sabotaged program that
   must FAIL it.  The property tests exercise these passes on random
   programs; these cases pin the failure detection itself, so a verifier
   that degenerates to "always Ok" cannot survive. *)

open Gecko_isa
module B = Builder
module Core = Gecko_core

let acc_loop () =
  let b = B.program "acc" in
  let d = B.space b "d" ~words:2 () in
  let acc = Reg.r1 and i = Reg.r2 and t = Reg.r3 in
  B.func b "main";
  B.block b "entry";
  B.li b acc 0;
  B.li b i 8;
  B.block b "loop" ~loop_bound:8;
  B.add b acc acc (B.reg i);
  B.st b (B.at d 0) acc;
  B.sub b i i (B.imm 1);
  B.bin b Instr.Slt t i (B.imm 1);
  B.br b Instr.Z t "loop" "fin";
  B.block b "fin";
  B.halt b;
  B.finish b

let compile ?budget_cycles scheme =
  Core.Pipeline.compile ?budget_cycles scheme (acc_loop ())

let check_ok name = function
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "%s: unexpected errors: %s" name (String.concat "; " msgs)

let check_err name = function
  | Ok () -> Alcotest.failf "%s: expected a verification failure, got Ok" name
  | Error msgs ->
      Alcotest.(check bool) (name ^ " reports at least one message") true (msgs <> [])

(* --- idempotence ------------------------------------------------------ *)

(* A load/store anti-dependence on the same word with no boundary between
   them: re-executing the region reads its own output. *)
let war_no_boundary () =
  let b = B.program "war" in
  let d = B.space b "d" ~words:1 () in
  B.func b "main";
  B.block b "entry";
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  B.finish b

let test_idempotence_flags_war () =
  check_err "idempotence on WAR without boundary"
    (Core.Verify.idempotence (war_no_boundary ()))

let test_idempotence_ok_after_pipeline () =
  let p, _ = compile Core.Scheme.Gecko in
  check_ok "idempotence on compiled program" (Core.Verify.idempotence p)

(* A compiled program with its Boundary instructions stripped must fail:
   the pipeline placed a boundary between the WAR program's load and
   store exactly to break that hazard. *)
let test_idempotence_flags_stripped_boundaries () =
  let p, _ = Core.Pipeline.compile Core.Scheme.Gecko (war_no_boundary ()) in
  let p = Core.Copy.program p in
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          blk.Cfg.instrs <-
            List.filter
              (function Instr.Boundary _ -> false | _ -> true)
              blk.Cfg.instrs)
        f.Cfg.blocks)
    p.Cfg.funcs;
  check_err "idempotence after stripping boundaries" (Core.Verify.idempotence p)

(* --- may-alias (dynamic) WAR ----------------------------------------- *)

(* A WAR through register-addressed references: the load's and store's
   displacements are registers, so only a may-alias analysis can see the
   hazard. *)
let dyn_war () =
  let b = B.program "dynwar" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r2 0;
  B.li b Reg.r3 1;
  B.ld b Reg.r1 (B.idx d Reg.r2);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.idx d Reg.r3) Reg.r1;
  B.halt b;
  B.finish b

(* Insert [Boundary 0] immediately before the first matching instruction
   of [main] — the "cut" resolution class, by hand. *)
let cut_before p pred =
  let p = Core.Copy.program p in
  let f = List.hd p.Cfg.funcs in
  List.iter
    (fun blk ->
      blk.Cfg.instrs <-
        List.concat_map
          (fun i -> if pred i then [ Instr.Boundary 0; i ] else [ i ])
          blk.Cfg.instrs)
    f.Cfg.blocks;
  p

let test_idempotence_flags_dynamic_war () =
  check_err "idempotence on register-addressed WAR"
    (Core.Verify.idempotence (dyn_war ()))

let test_idempotence_accepts_cut_dynamic_war () =
  let cut =
    cut_before (dyn_war ()) (function Instr.St _ -> true | _ -> false)
  in
  check_ok "idempotence once the dynamic store is cut"
    (Core.Verify.idempotence cut)

let test_pipeline_cuts_dynamic_war () =
  (* The sound pipeline must form regions that break the hazard on its
     own, and the emitted program must satisfy the sound gate. *)
  let p, _ = Core.Pipeline.compile Core.Scheme.Gecko (dyn_war ()) in
  check_ok "compiled dynamic-WAR program is idempotent"
    (Core.Verify.idempotence p)

(* A stale must-alias write is no WARAW exemption when a
   register-addressed store in between may clobber the location:
   store d[0]; store d[r3] (may alias d[0]); load d[0]; store d[0].  The
   analysis reports the intervening dynamic store as a clobber rather
   than exempting the pair on the first store. *)
let clobbered_waraw () =
  let b = B.program "clobber" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r5 7;
  B.li b Reg.r3 1;
  B.st b (B.at d 0) Reg.r5;
  B.st b (B.idx d Reg.r3) Reg.r5;
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  B.finish b

let test_sound_rejects_clobbered_waraw () =
  check_err "sound idempotence flags the clobbered WARAW exemption"
    (Core.Verify.idempotence (clobbered_waraw ()))

(* --- coloring --------------------------------------------------------- *)

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

let test_coloring_ok_after_pipeline () =
  (* A small budget forces in-loop boundaries, so the accumulator's slot
     really is saved at adjacent boundaries and the colours matter. *)
  let p, meta = compile ~budget_cycles:80 Core.Scheme.Gecko in
  check_ok "coloring on compiled program" (Core.Verify.coloring p meta)

let test_coloring_flags_collapsed_colors () =
  let p, meta = compile ~budget_cycles:80 Core.Scheme.Gecko in
  let p', meta' = sabotage_colors p meta in
  check_err "coloring with every colour forced to 0"
    (Core.Verify.coloring p' meta')

(* Hand-built images: [set_block p label instrs] replaces a block's body
   of function "main", and [restores_meta] describes boundaries by their
   restores [(bid, [(reg, colour, owned)])]. *)
let set_block p label instrs =
  (Cfg.find_block (Cfg.find_func p "main") label).Cfg.instrs <- instrs

let restores_meta bs =
  let infos = Hashtbl.create 8 in
  List.iter
    (fun (bid, rs) ->
      Hashtbl.replace infos bid
        {
          Core.Meta.b_id = bid;
          b_func = "main";
          restores =
            List.map
              (fun (r, c, owned) ->
                {
                  Core.Meta.r_reg = r;
                  r_color = c;
                  r_owned = owned;
                  r_stable = None;
                })
              rs;
          recoveries = [];
        })
    bs;
  { (Core.Meta.empty Core.Scheme.Gecko) with Core.Meta.infos }

(* A counted loop: the header boundary 0 stores the counter r1 and the
   body boundary 1 stores r0 and r1, each register's two stores in
   alternating colours except r0, which boundary 1 alone stores, in
   colour 0.  [header_use] makes r0 live at the header (an increment,
   and boundary 0 reuses boundary 1's slot) instead of dead (set afresh). *)
let header_loop_image ~header_use =
  let b = B.program "hdr" in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 4;
  B.block b "hdr" ~loop_bound:4;
  B.sub b Reg.r1 Reg.r1 (B.reg Reg.r0);
  B.br b Instr.Nz Reg.r1 "hdr" "exit_";
  B.block b "exit_";
  B.halt b;
  let p = B.finish b in
  set_block p "hdr"
    [
      Instr.Ckpt (Reg.r1, 0);
      Instr.Boundary 0;
      (if header_use then Instr.Bin (Instr.Add, Reg.r0, Reg.r0, Instr.Oimm 1)
       else Instr.Li (Reg.r0, 7));
      Instr.Ckpt (Reg.r0, 0);
      Instr.Ckpt (Reg.r1, 1);
      Instr.Boundary 1;
      Instr.Bin (Instr.Sub, Reg.r1, Reg.r1, Instr.Oreg Reg.r0);
    ];
  let meta =
    restores_meta
      [
        ( 0,
          (Reg.r1, 0, true)
          :: (if header_use then [ (Reg.r0, 0, false) ] else []) );
        (1, [ (Reg.r0, 0, true); (Reg.r1, 1, true) ]);
      ]
  in
  (p, meta)

let test_coloring_dead_header_ends_span () =
  (* r0 is dead at the header, so the back edge ends boundary 1's span
     there: its lone colour meets no other store of r0. *)
  let p, meta = header_loop_image ~header_use:false in
  check_ok "r0 stored once per iteration, dead at the header"
    (Core.Verify.coloring p meta)

let test_coloring_flags_live_header () =
  (* With r0 live (and reused) at the header, the span runs through it to
     the same store after the increment: a self-loop in one colour. *)
  let p, meta = header_loop_image ~header_use:true in
  check_err "r0 live at the header, one colour" (Core.Verify.coloring p meta)

(* --- slots (window clobbers) ------------------------------------------ *)

let test_slots_ok_after_pipeline () =
  let p, meta = compile ~budget_cycles:80 Core.Scheme.Gecko in
  check_ok "slots on compiled program" (Core.Verify.(slots (scan p meta)))

let test_slots_flags_collapsed_colors () =
  (* Collapsing every colour to 0 makes each restore read a slot that the
     next boundary's store overwrites inside the crash window — the
     defect class the gate exists for, detected independently of the
     colouring metadata. *)
  let p, meta = compile ~budget_cycles:80 Core.Scheme.Gecko in
  let p', meta' = sabotage_colors p meta in
  check_err "slots with every colour forced to 0" (Core.Verify.(slots (scan p' meta')))

(* Boundary 0 stores r0 in colour 0; two paths lead to boundary 1, which
   stores r0 in the same colour.  [redefine] makes one of them increment
   r0, so the second store can overwrite the slot boundary 0's restore
   reads with a different word inside boundary 0's crash window. *)
let window_image ~redefine =
  let b = B.program "win" in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 1;
  B.br b Instr.Z Reg.r0 "left" "right";
  B.block b "left";
  (if redefine then B.add b Reg.r0 Reg.r0 (B.imm 1) else B.mov b Reg.r2 Reg.r0);
  B.jmp b "join";
  B.block b "right";
  B.mov b Reg.r2 Reg.r0;
  B.block b "join";
  B.mov b Reg.r3 Reg.r0;
  B.halt b;
  let p = B.finish b in
  set_block p "entry"
    [ Instr.Li (Reg.r0, 1); Instr.Ckpt (Reg.r0, 0); Instr.Boundary 0 ];
  set_block p "join"
    [ Instr.Ckpt (Reg.r0, 0); Instr.Boundary 1; Instr.Mov (Reg.r3, Reg.r0) ];
  (p, restores_meta [ (0, [ (Reg.r0, 0, true) ]); (1, [ (Reg.r0, 0, true) ]) ])

let test_slots_flags_redefining_path () =
  let p, meta = window_image ~redefine:true in
  check_err "store reached along a path that redefines r0"
    (Core.Verify.(slots (scan p meta)));
  Alcotest.(check (list (pair int string)))
    "the clobbered read" [ (0, "r0") ]
    (List.map
       (fun (b, r) -> (b, Reg.to_string r))
       (Core.Verify.(slot_clobbers (scan p meta))))

(* The gate exempts no marked store: naming the clobbering [Ckpt] in
   [Meta.guards] does not make the clobber acceptable. *)
let test_slots_ignores_guard_marks () =
  let p, meta = window_image ~redefine:true in
  check_err "clobber at a store marked as guarded"
    (Core.Verify.(slots (scan p { meta with Core.Meta.guards = [ ("main", "join", 0) ] })))

let test_slots_accepts_identical_word () =
  let p, meta = window_image ~redefine:false in
  check_ok "store reached only along paths that keep r0"
    (Core.Verify.(slots (scan p meta)))

(* --- io_commit (atomic io_log) ---------------------------------------- *)

let torn_io () =
  let b = B.program "torn" in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r1 42;
  B.io_out b 0 Reg.r1;
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.halt b;
  B.finish b

let test_io_commit_flags_torn_out () =
  check_err "io_commit on Out without a committing boundary"
    (Core.Verify.io_commit (torn_io ()))

let test_io_commit_accepts_bracketed_out () =
  (* Splice the commit point in by hand (Ckpt stores may sit between the
     Out and its boundary, as emission produces). *)
  let p = Core.Copy.program (torn_io ()) in
  let f = List.hd p.Cfg.funcs in
  List.iter
    (fun blk ->
      blk.Cfg.instrs <-
        List.concat_map
          (fun i ->
            match i with
            | Instr.Out _ ->
                [ i; Instr.Ckpt (Reg.r1, 0); Instr.Boundary 0 ]
            | _ -> [ i ])
          blk.Cfg.instrs)
    f.Cfg.blocks;
  check_ok "io_commit once the Out is bracketed" (Core.Verify.io_commit p)

let test_io_commit_ok_after_pipeline () =
  let prog = (Gecko_workloads.Workload.find "blink").Gecko_workloads.Workload.build () in
  let p, _ = Core.Pipeline.compile Core.Scheme.Gecko prog in
  check_ok "io_commit on compiled blink" (Core.Verify.io_commit p)

(* --- wcet ------------------------------------------------------------- *)

let test_wcet_ok_with_ample_budget () =
  let p, _ = compile ~budget_cycles:80 Core.Scheme.Gecko in
  check_ok "wcet within the compile budget" (Core.Verify.wcet ~budget:80 p)

let test_wcet_flags_tiny_budget () =
  let p, _ = compile Core.Scheme.Gecko in
  check_err "wcet with a 1-cycle budget" (Core.Verify.wcet ~budget:1 p)

let () =
  Alcotest.run "verify"
    [
      ( "idempotence",
        [
          Alcotest.test_case "flags WAR without boundary" `Quick
            test_idempotence_flags_war;
          Alcotest.test_case "accepts compiled program" `Quick
            test_idempotence_ok_after_pipeline;
          Alcotest.test_case "flags stripped boundaries" `Quick
            test_idempotence_flags_stripped_boundaries;
        ] );
      ( "may-alias-war",
        [
          Alcotest.test_case "flags register-addressed WAR" `Quick
            test_idempotence_flags_dynamic_war;
          Alcotest.test_case "accepts the hand-cut resolution" `Quick
            test_idempotence_accepts_cut_dynamic_war;
          Alcotest.test_case "pipeline cuts it automatically" `Quick
            test_pipeline_cuts_dynamic_war;
          Alcotest.test_case "sound rejects clobbered WARAW exemption" `Quick
            test_sound_rejects_clobbered_waraw;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "accepts compiled program" `Quick
            test_coloring_ok_after_pipeline;
          Alcotest.test_case "flags collapsed colours" `Quick
            test_coloring_flags_collapsed_colors;
          Alcotest.test_case "dead header ends the span" `Quick
            test_coloring_dead_header_ends_span;
          Alcotest.test_case "flags a live header's self-loop" `Quick
            test_coloring_flags_live_header;
        ] );
      ( "slots",
        [
          Alcotest.test_case "accepts compiled program" `Quick
            test_slots_ok_after_pipeline;
          Alcotest.test_case "flags collapsed colours" `Quick
            test_slots_flags_collapsed_colors;
          Alcotest.test_case "flags a store on a redefining path" `Quick
            test_slots_flags_redefining_path;
          Alcotest.test_case "accepts the identical word" `Quick
            test_slots_accepts_identical_word;
          Alcotest.test_case "ignores guard marks" `Quick
            test_slots_ignores_guard_marks;
        ] );
      ( "io-commit",
        [
          Alcotest.test_case "flags an uncommitted Out" `Quick
            test_io_commit_flags_torn_out;
          Alcotest.test_case "accepts a bracketed Out" `Quick
            test_io_commit_accepts_bracketed_out;
          Alcotest.test_case "accepts compiled blink" `Quick
            test_io_commit_ok_after_pipeline;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "accepts ample budget" `Quick
            test_wcet_ok_with_ample_budget;
          Alcotest.test_case "flags tiny budget" `Quick
            test_wcet_flags_tiny_budget;
        ] );
    ]
