(* Unit tests for the dataflow analyses on hand-built CFGs. *)

open Gecko_isa
module A = Gecko_analysis
module B = Builder

(* A diamond with a loop:
   entry -> hdr -> (then | else) -> join -> hdr ... -> exit *)
let diamond_loop () =
  let b = B.program "dl" in
  let d = B.space b "d" ~words:8 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 5;
  B.block b "hdr" ~loop_bound:5;
  B.bin b Instr.And Reg.r2 Reg.r0 (B.imm 1);
  B.br b Instr.Nz Reg.r2 "then_" "else_";
  B.block b "then_";
  B.st b (B.at d 0) Reg.r0;
  B.jmp b "join";
  B.block b "else_";
  B.st b (B.at d 1) Reg.r1;
  B.block b "join";
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Instr.Slt Reg.r2 Reg.r0 (B.reg Reg.r1);
  B.br b Instr.Nz Reg.r2 "hdr" "exit_";
  B.block b "exit_";
  B.halt b;
  B.finish b

let graph_of p = A.Fgraph.of_func (Cfg.find_func p "main")

let test_dominators () =
  let g = graph_of (diamond_loop ()) in
  let dom = A.Dom.compute g in
  let id l = A.Fgraph.block_id g l in
  Alcotest.(check bool) "entry dom all" true (A.Dom.dominates dom (id "entry") (id "exit_"));
  Alcotest.(check bool) "hdr dom join" true (A.Dom.dominates dom (id "hdr") (id "join"));
  Alcotest.(check bool) "then not dom join" false
    (A.Dom.dominates dom (id "then_") (id "join"));
  Alcotest.(check int) "idom of join is hdr" (id "hdr") (A.Dom.idom dom (id "join"))

let test_loops () =
  let g = graph_of (diamond_loop ()) in
  let dom = A.Dom.compute g in
  let loops = A.Loops.compute g dom in
  let id l = A.Fgraph.block_id g l in
  Alcotest.(check (list int)) "headers" [ id "hdr" ] (A.Loops.headers loops);
  let l = List.hd (A.Loops.loops loops) in
  Alcotest.(check bool) "join in body" true (List.mem (id "join") l.A.Loops.body);
  Alcotest.(check bool) "exit not in body" false (List.mem (id "exit_") l.A.Loops.body)

let test_liveness () =
  let live = A.Ipliveness.compute (diamond_loop ()) in
  let g = A.Ipliveness.graph live ~fname:"main" in
  let at_hdr =
    A.Ipliveness.live_at live ~fname:"main"
      { A.Fgraph.blk = A.Fgraph.block_id g "hdr"; idx = 0 }
  in
  (* r1 (the bound) is live at the loop header, r2 (the scratch) is not. *)
  Alcotest.(check bool) "r1 live at hdr" true (Reg.Set.mem Reg.r1 at_hdr);
  Alcotest.(check bool) "r2 dead at hdr" false (Reg.Set.mem Reg.r2 at_hdr)

let test_reaching () =
  let g = graph_of (diamond_loop ()) in
  let r = A.Reaching.compute g in
  let id l = A.Fgraph.block_id g l in
  (* At the header, r0 has two reaching defs (entry li, join increment). *)
  let defs = A.Reaching.reaching_at r Reg.r0 { A.Fgraph.blk = id "hdr"; idx = 0 } in
  Alcotest.(check int) "two defs of r0" 2 (List.length defs);
  Alcotest.(check bool) "no unique def" true
    (A.Reaching.unique_at r Reg.r0 { A.Fgraph.blk = id "hdr"; idx = 0 } = None);
  (* r1 has a unique def everywhere. *)
  Alcotest.(check bool) "unique def of r1" true
    (A.Reaching.unique_at r Reg.r1 { A.Fgraph.blk = id "exit_"; idx = 0 } <> None)

let test_alias () =
  let s1 = { Instr.space_name = "a"; space_id = 0; space_words = 8 } in
  let s2 = { Instr.space_name = "b"; space_id = 1; space_words = 8 } in
  let m ?(s = s1) d = { Instr.space = s; disp = d } in
  Alcotest.(check bool) "same const" true
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m (Instr.Dconst 3)));
  Alcotest.(check bool) "diff const" false
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m (Instr.Dconst 4)));
  Alcotest.(check bool) "dyn vs const" true
    (A.Alias.may_alias (m (Instr.Dreg Reg.r0)) (m (Instr.Dconst 4)));
  Alcotest.(check bool) "different spaces" false
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m ~s:s2 (Instr.Dconst 3)))

let test_wcet_spans () =
  (* After region formation every span is finite and positive. *)
  let p = diamond_loop () in
  let next_id = ref 0 in
  ignore (Gecko_core.Regions.form ~next_id p);
  let g = graph_of p in
  let w = A.Wcet.compute g in
  let spans = A.Wcet.boundary_spans w in
  Alcotest.(check bool) "has boundaries" true (List.length spans >= 2);
  List.iter
    (fun (_, _, span) -> Alcotest.(check bool) "positive span" true (span > 0))
    spans

let test_wcet_unbounded () =
  (* Without formation the loop has no boundary: the WCET must refuse. *)
  let p = diamond_loop () in
  let g = graph_of p in
  (match A.Wcet.compute g with
  | exception A.Wcet.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected Unbounded")

let test_clobbers () =
  let b = B.program "calls" in
  B.func b "main";
  B.block b "e";
  B.call b "f" ~ret:"r";
  B.block b "r";
  B.halt b;
  B.func b "f";
  B.block b "fe";
  B.li b Reg.r7 1;
  B.call b "g" ~ret:"fr";
  B.block b "fr";
  B.ret b;
  B.func b "g";
  B.block b "ge";
  B.li b Reg.r8 2;
  B.ret b;
  let p = B.finish b in
  let c = A.Clobbers.compute p in
  let cf = A.Clobbers.of_function c "f" in
  Alcotest.(check bool) "f clobbers r7" true (Reg.Set.mem Reg.r7 cf);
  Alcotest.(check bool) "f clobbers r8 transitively" true (Reg.Set.mem Reg.r8 cf);
  Alcotest.(check bool) "f does not clobber sp" false (Reg.Set.mem Reg.sp cf)

let test_ipliveness () =
  let b = B.program "ipl" in
  let out = B.space b "o" ~words:1 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 41;
  B.call b "inc" ~ret:"r";
  B.block b "r";
  B.st b (B.at out 0) Reg.r0;
  B.halt b;
  B.func b "inc";
  B.block b "ie";
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.ret b;
  let p = B.finish b in
  let l = A.Ipliveness.compute p in
  let g = A.Ipliveness.graph l ~fname:"inc" in
  ignore g;
  (* r0 is live at the callee entry (used there and by the caller after
     return); r5 is not. *)
  let live = A.Ipliveness.live_at l ~fname:"inc" { A.Fgraph.blk = 0; idx = 0 } in
  Alcotest.(check bool) "r0 live in callee" true (Reg.Set.mem Reg.r0 live);
  Alcotest.(check bool) "r5 dead in callee" false (Reg.Set.mem Reg.r5 live)

(* {1 QCheck properties for the alias layer}

   Constant slots are separated by construction. *)

let space_a = { Instr.space_name = "a"; space_id = 0; space_words = 64 }
let space_b = { Instr.space_name = "b"; space_id = 1; space_words = 64 }

let prop_distinct_slots =
  QCheck.Test.make ~count:400
    ~name:"distinct constant-offset slots never alias"
    QCheck.(triple (int_bound 63) (int_bound 63) bool)
    (fun (i, j, same_space) ->
      let m s d = { Instr.space = s; disp = Instr.Dconst d } in
      let verdict =
        A.Alias.may_alias (m space_a i)
          (m (if same_space then space_a else space_b) j)
      in
      (* Same space: alias iff the very same slot.  Distinct spaces are
         distinct allocations, whatever the offsets. *)
      if same_space then verdict = (i = j) else not verdict)

(* A [Boundary] defines nothing, so inserting one only moves definition
   points: a [Reaching.t] shifted in place must answer [reaching_at] and
   [unique_at] at every point and register exactly as a fresh
   computation over the changed function does, insertion after
   insertion (call terminators included: generated programs with calls
   define every register there). *)
let prop_reaching_shift =
  QCheck.Test.make ~count:150
    ~name:"shifted reaching definitions equal a fresh computation"
    QCheck.(make ~print:string_of_int Gen.(int_bound 99999))
    (fun seed ->
      let p = Gen_prog.generate_mixed seed in
      let rng = Gecko_util.Rng.create seed in
      List.for_all
        (fun (f : Cfg.func) ->
          let g = A.Fgraph.of_func f in
          let shifted = A.Reaching.compute g in
          let agrees () =
            let fresh = A.Reaching.compute g in
            Array.for_all Fun.id
              (Array.mapi
                 (fun blk (b : Cfg.block) ->
                   List.for_all
                     (fun idx ->
                       let pt = { A.Fgraph.blk; idx } in
                       List.for_all
                         (fun r ->
                           List.equal A.Reaching.def_equal
                             (A.Reaching.reaching_at shifted r pt)
                             (A.Reaching.reaching_at fresh r pt)
                           && Option.equal A.Reaching.def_equal
                                (A.Reaching.unique_at shifted r pt)
                                (A.Reaching.unique_at fresh r pt))
                         Reg.all)
                     (List.init (List.length b.Cfg.instrs + 1) Fun.id))
                 g.A.Fgraph.blocks)
          in
          List.for_all
            (fun k ->
              let blk = Gecko_util.Rng.int rng (A.Fgraph.n_blocks g) in
              let b = g.A.Fgraph.blocks.(blk) in
              let idx = Gecko_util.Rng.int rng (List.length b.Cfg.instrs + 1) in
              b.Cfg.instrs <-
                List.filteri (fun i _ -> i < idx) b.Cfg.instrs
                @ (Instr.Boundary (1000 + k) :: List.filteri (fun i _ -> i >= idx) b.Cfg.instrs);
              A.Reaching.shift shifted ~blk ~idx;
              agrees ())
            [ 0; 1; 2; 3 ])
        p.Cfg.funcs)

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "reaching defs" `Quick test_reaching;
          Alcotest.test_case "alias" `Quick test_alias;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "spans" `Quick test_wcet_spans;
          Alcotest.test_case "unbounded" `Quick test_wcet_unbounded;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "clobbers" `Quick test_clobbers;
          Alcotest.test_case "liveness" `Quick test_ipliveness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_distinct_slots; prop_reaching_shift ]
      );
    ]
