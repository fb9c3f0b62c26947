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

(* A cut can break a WARAW exemption earlier in program order than the
   hazard it resolves.  Block [b] sits before [c] in the listing but
   runs after it, with no loop header between them: [c]'s load of y[0]
   reaches [b]'s store to y[0], and the cut before that store falls
   between [b]'s store to x[0] and the load of x[0] it exempted.  That
   load then anti-depends on the store after it and needs a second cut,
   which only a search resuming at [b] (not at [c]'s load) finds. *)
let test_cut_breaks_earlier_waraw () =
  let b = B.program "waraw_cut" in
  let x = B.space b "x" ~words:1 () in
  let y = B.space b "y" ~words:1 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r1 7;
  B.jmp b "c";
  B.block b "b";
  B.st b (B.at x 0) Reg.r1;
  B.st b (B.at y 0) Reg.r1;
  B.ld b Reg.r4 (B.at x 0);
  B.add b Reg.r4 Reg.r4 (B.imm 1);
  B.st b (B.at x 0) Reg.r4;
  B.halt b;
  B.block b "c";
  B.ld b Reg.r5 (B.at y 0);
  B.jmp b "b";
  let p = B.finish b in
  let next_id = ref 0 in
  Alcotest.(check int) "entry boundary and two cuts" 3 (Core.Regions.form ~next_id p);
  Alcotest.(check (list string)) "idempotent" [] (Core.Regions.violations p)

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

(* The oracle of the resumable cut loop in [Regions.form]: cut before
   the store of the head of the full hazard list, recompute the list,
   repeat. *)
let rec cut_from_scratch next_id (p : Cfg.program) =
  match Gecko_analysis.Alias.war_hazards p with
  | [] -> ()
  | hz :: _ ->
      let f =
        List.find
          (fun (f : Cfg.func) -> f.Cfg.fname = hz.Gecko_analysis.Alias.hz_store_func)
          p.Cfg.funcs
      in
      let blk, idx = hz.Gecko_analysis.Alias.hz_store in
      let b = List.nth f.Cfg.blocks blk in
      b.Cfg.instrs <-
        List.filteri (fun i _ -> i < idx) b.Cfg.instrs
        @ (Instr.Boundary !next_id :: List.filteri (fun i _ -> i >= idx) b.Cfg.instrs);
      incr next_id;
      cut_from_scratch next_id p

(* [run] ([Regions.form] or [Regions.split]) on [p] against the same
   pass on a copy whose WAR cuts are taken back and redone by the
   oracle.  Boundary ids count up in insertion order and [run]'s WAR
   cuts come last, so the two listings are equal exactly when both
   loops cut at the same places in the same order. *)
let same_cuts_as_oracle ~next_id ~run (p : Cfg.program) =
  let oracle = Core.Copy.program p in
  let reg = Gecko_obs.Metrics.create () in
  let first = !next_id in
  let inserted = run ~metrics:reg ~next_id p in
  (* One search per cut, plus the last one that finds nothing; none at
     all when [Regions.split] made no WCET cut. *)
  let cuts =
    max 0
      (Gecko_obs.Metrics.counter_value
         (Gecko_obs.Metrics.counter reg "pipeline.war.searches")
      - 1)
  in
  ignore (run ~metrics:(Gecko_obs.Metrics.create ()) ~next_id:(ref first) oracle);
  (* Take the oracle copy back to the boundaries [run] placed before
     its WAR cuts. *)
  let last_uncut = first + inserted - cuts in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          b.Cfg.instrs <-
            List.filter
              (function Instr.Boundary id -> id < last_uncut | _ -> true)
              b.Cfg.instrs)
        f.Cfg.blocks)
    oracle.Cfg.funcs;
  cut_from_scratch (ref last_uncut) oracle;
  Asm.to_string p = Asm.to_string oracle

let form ~metrics ~next_id p = Core.Regions.form ~metrics ~next_id p

let split ~budget ~metrics ~next_id p =
  Core.Regions.split ~metrics ~next_id ~budget ~ckpt_overhead:0 p

let prop_cuts_match_oracle =
  QCheck.Test.make ~count:150
    ~name:"resumable WAR cuts equal the from-scratch loop's"
    QCheck.(make ~print:string_of_int Gen.(int_bound 99999))
    (fun seed ->
      (* Half the seeds end in a split run, whose WCET cut must fall
         back to breaking a WARAW exemption. *)
      let p =
        Gen_prog.generate ~calls:(seed land 4 <> 0) ~runs:(seed land 8 <> 0) seed
      in
      let next_id = ref 0 in
      same_cuts_as_oracle ~next_id ~run:form p
      (* After a WCET split (which can break WARAW exemptions), the
         split's re-cut as well. *)
      && same_cuts_as_oracle ~next_id ~run:(split ~budget:300) p
      && Core.Regions.violations p = [])

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
  ignore (Core.Regions.split ~next_id ~budget:50 ~ckpt_overhead:10 p);
  Alcotest.(check bool) "splits inserted" true (count_boundaries p > before);
  Alcotest.(check bool) "spans fit" true (Core.Regions.max_span p <= 50)

(* A WCET cut that must break a WARAW exemption.  In block [e] the
   protected intervals of [ld x] (exempted by the [st x] before it) and
   [ld y] (by [st y]) cover every point from just after [st y] to the
   [ld y] that the [out]'s leading boundary follows, so no point of the
   oversized entry region can be cut without breaking one.  The split
   falls back to the first such point; [ld x] then anti-depends on the
   [st x] after it, and the split's re-cut puts a boundary before that
   store.  (A cut in front of the closing boundary would split nothing,
   so the split would choose it again until it gave up.) *)
let test_split_recut () =
  let b = B.program "split_recut" in
  let x = B.space b "x" ~words:1 () in
  let y = B.space b "y" ~words:1 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r1 7;
  B.st b (B.at y 0) Reg.r1;
  B.st b (B.at x 0) Reg.r1;
  for i = 1 to 40 do
    B.li b Reg.r0 i
  done;
  B.ld b Reg.r4 (B.at x 0);
  B.add b Reg.r4 Reg.r4 (B.imm 1);
  B.st b (B.at x 0) Reg.r4;
  B.ld b Reg.r5 (B.at y 0);
  B.io_out b 0 Reg.r5;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  Alcotest.(check (list string)) "formed" [] (Core.Regions.violations p);
  let reg = Gecko_obs.Metrics.create () in
  ignore (Core.Regions.split ~metrics:reg ~next_id ~budget:40 ~ckpt_overhead:0 p);
  Alcotest.(check (list string)) "idempotent after the split" []
    (Core.Regions.violations p);
  Alcotest.(check bool) "spans fit" true (Core.Regions.max_span p <= 40);
  let searches =
    Gecko_obs.Metrics.counter_value
      (Gecko_obs.Metrics.counter reg "pipeline.war.searches")
  in
  Alcotest.(check bool) "at least one WAR cut" true (searches >= 2);
  (* The re-cut sits between [ld x] and the [st x] after it. *)
  let body = (Cfg.find_block (Cfg.find_func p "main") "e").Cfg.instrs in
  let rec after_load = function
    | Instr.Ld (r, _) :: rest when Reg.equal r Reg.r4 -> rest
    | _ :: rest -> after_load rest
    | [] -> Alcotest.fail "ld x not found"
  in
  let rec cut_before_store = function
    | Instr.Boundary _ :: _ -> true
    | Instr.St _ :: _ | [] -> false
    | _ :: rest -> cut_before_store rest
  in
  Alcotest.(check bool) "boundary before st x" true
    (cut_before_store (after_load body))

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
   move to another node of the cycle for the rounds to converge. *)
let test_coloring_converges_with_calls () =
  List.iter
    (fun seed ->
      let p, meta =
        Core.Pipeline.compile Core.Scheme.Gecko
          (Gen_prog.generate ~calls:true seed)
      in
      match Core.Verify.(coloring (scan p meta)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed (String.concat "; " e))
    [ 272; 1241 ]

(* Coloring: a loop header's checkpoints get a repair partner with
   alternating colours. *)
let test_coloring_alternates () =
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  (match Core.Verify.(coloring (scan p meta)) with
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
   [Boundary k].  [color ~keeps p] then runs the pipeline's colouring
   rounds (candidates over one set of facts, [try_color], a repair on
   each conflict, at most 256 repairs) with a pruning stand-in: boundary
   [bid] stores the live-ins [keeps bid r] selects, a repair boundary
   exactly the registers it is forced to keep, and nothing else is
   stored.  It returns the round count and the
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
  let p = number_boundaries p in
  let facts = Core.Candidates.facts p in
  let rounds = Core.Coloring.rounds (Core.Spans.make facts p) in
  let next_id = ref first_repair in
  let decide (cands : Core.Candidates.t) =
    let decisions = Hashtbl.create 8 in
    List.iter
      (fun (s : Core.Candidates.site) ->
        let bid = s.Core.Candidates.s_id in
        Hashtbl.replace decisions bid
          (List.map
             (fun r ->
               if
                 Reg.Set.mem r (Core.Coloring.forced rounds bid)
                 || (bid < first_repair && keeps bid r)
               then (r, Core.Prune.Keep)
               else (r, Core.Prune.Reuse 0))
             (Reg.Set.elements s.Core.Candidates.s_live)))
      cands.Core.Candidates.sites;
    decisions
  in
  let rec round n =
    if n > 257 then Alcotest.fail "colouring did not converge";
    let cands = Core.Candidates.compute ~facts p in
    let decisions = decide cands in
    match Core.Coloring.try_color rounds cands decisions with
    | Core.Coloring.Colored _ -> (n, decisions)
    | Core.Coloring.Conflict c ->
        Core.Coloring.repair rounds ~next_id cands c;
        round (n + 1)
  in
  let rounds, decisions = round 1 in
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
      decisions []
  in
  (rounds, List.sort compare repairs)

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

(* Rule 3, through the whole pipeline: the return boundary of a call in
   a loop reuses the loop header's slots of r0 and r1 (nothing between
   the two defines them), but the header's next stores of both, after
   the latch increments them, land inside the return boundary's crash
   window and overwrite exactly those slots.  The window-clobber scan
   rejects the reuse, so the pipeline force-keeps it: the return
   boundary stores r0 and r1 itself, span colouring gives those stores
   their own colour, and no store needs a runtime guard. *)
let clobbered_reuse () =
  let b = B.program "clobber" in
  let d = B.space b "d" ~words:1 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 4;
  B.block b "loop" ~loop_bound:4;
  B.call b "f" ~ret:"back";
  B.block b "back";
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.sub b Reg.r1 Reg.r1 (B.imm 1);
  B.br b Instr.Nz Reg.r1 "loop" "exit_";
  B.block b "exit_";
  B.halt b;
  B.func b "f";
  B.block b "f_entry";
  B.ld b Reg.r2 (B.at d 0);
  B.add b Reg.r2 Reg.r2 (B.reg Reg.r0);
  B.st b (B.at d 0) Reg.r2;
  B.ret b;
  B.finish b

let test_clobbered_reuse_force_kept () =
  let metrics = Gecko_obs.Metrics.create () in
  let p, meta =
    Core.Pipeline.compile ~metrics Core.Scheme.Gecko (clobbered_reuse ())
  in
  Alcotest.(check int) "no runtime guards" 0 (List.length meta.Core.Meta.guards);
  Alcotest.(check int) "force-keeps" 2
    (Gecko_obs.Metrics.counter_value
       (Gecko_obs.Metrics.counter metrics "pipeline.slot_force_keeps"));
  let back =
    List.find_map
      (function Instr.Boundary id -> Some id | _ -> None)
      (Cfg.find_block (Cfg.find_func p "main") "back").Cfg.instrs
  in
  let info =
    match Option.bind back (Core.Meta.boundary_info meta) with
    | Some info -> info
    | None -> Alcotest.fail "no boundary after the call"
  in
  Alcotest.(check (list (pair string bool)))
    "the return boundary owns its stores"
    [ ("r0", true); ("r1", true) ]
    (List.filter_map
       (fun (x : Core.Meta.restore) ->
         if Reg.to_int x.Core.Meta.r_reg < 2 then
           Some (Reg.to_string x.Core.Meta.r_reg, x.Core.Meta.r_owned)
         else None)
       info.Core.Meta.restores);
  match Core.Verify.(slots (scan p meta)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "slots: %s" (String.concat "; " e)

(* No split fits a region into a budget below one instruction, and the
   compile fails with it. *)
let test_budget_too_small () =
  let p = sum_program () in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  (match Core.Regions.split ~next_id ~budget:4 ~ckpt_overhead:0 p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected budget failure");
  match Core.Pipeline.compile ~budget_cycles:4 Core.Scheme.Gecko (sum_program ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the compile to fail"

(* Listings: the compiler's output for every workload under every build,
   pinned as a digest of the newline-terminated .gasm text.  A change
   that should not move compiler output must leave these alone. *)
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
    ("dhrystone", "gecko", "4d9f9fa020a5a5796ca024a27fae17f1");
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

let listing_digest (p, (_ : Core.Meta.t)) =
  Digest.to_hex (Digest.string (Asm.to_string p ^ "\n"))

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

(* The recovery metadata of the same compiles, pinned the same way: a
   change that moves a restore's colour or ownership, a recovery slice,
   or a statistic fails here even when the .gasm text stays put. *)
let expected_meta =
  [
    ("basicmath", "ratchet", "7a9c6de01ba799b6c382572cd10d9810");
    ("basicmath", "gecko-noprune", "80c6699e01fd65f0629ae8a9994f5e54");
    ("basicmath", "gecko", "89c97d758543ca97ab8ccaadc401d4dc");
    ("bitcnt", "ratchet", "deac04d20befcbed5151b89b5f28e7a4");
    ("bitcnt", "gecko-noprune", "f750778030de3ce04109502524626e0d");
    ("bitcnt", "gecko", "e277d3a3c52f3b6c92edeb76b5810cfe");
    ("blink", "ratchet", "137bfdc65d147e09606ee45cbffb375c");
    ("blink", "gecko-noprune", "5a9b9fad93d645dd91814d1bad27da17");
    ("blink", "gecko", "f76f1d2ef77626ca7f49c8da476b09dd");
    ("crc16", "ratchet", "deac04d20befcbed5151b89b5f28e7a4");
    ("crc16", "gecko-noprune", "5451bed63c01aadab96d26258aa76d49");
    ("crc16", "gecko", "cb4505c4cd3a27afbf13aa07839d3c04");
    ("crc32", "ratchet", "deac04d20befcbed5151b89b5f28e7a4");
    ("crc32", "gecko-noprune", "b1f4e136b032997d7409ea18a8ea1dae");
    ("crc32", "gecko", "d966f06e9cd4eff3cdaa3a584cb4aa97");
    ("dhrystone", "ratchet", "f03a37f03d9bf95f0ff71e2f614b7a18");
    ("dhrystone", "gecko-noprune", "a255fc045ba0102a866e49b926451f0c");
    ("dhrystone", "gecko", "b36a29e88c8c2b7b92b4f715655409de");
    ("dijkstra", "ratchet", "379d8f7cc190241a1f94431ef4e0f26d");
    ("dijkstra", "gecko-noprune", "ae2a09147827874129b54e6f533ca636");
    ("dijkstra", "gecko", "0bbe23bea17eefd688bf6b041b609727");
    ("fft", "ratchet", "82bfcaaa867420337c5f51075f91f566");
    ("fft", "gecko-noprune", "381102424cff5f28da9b536d9c99355b");
    ("fft", "gecko", "b19d4649cafdc8ad1b69d6a18cad0699");
    ("fir", "ratchet", "deac04d20befcbed5151b89b5f28e7a4");
    ("fir", "gecko-noprune", "7424cf92e1c5275378e234a8bc9e6ccd");
    ("fir", "gecko", "5db0c30726ab3b118f15791ef35ea9d5");
    ("qsort", "ratchet", "7a9c6de01ba799b6c382572cd10d9810");
    ("qsort", "gecko-noprune", "1ccabdd06a158995e17ff5226cf2cfbd");
    ("qsort", "gecko", "39e79e2915d7af50bd7061c4a11fbae7");
    ("stringsearch", "ratchet", "2f85995a4193a7bec19e402e546d26bb");
    ("stringsearch", "gecko-noprune", "993440781cfdc1c58ec9c653725006eb");
    ("stringsearch", "gecko", "993440781cfdc1c58ec9c653725006eb");
  ]

(* Every boundary's restores (register, colour, owned) and recovery
   slices in boundary-id order, then the stats line. *)
let meta_digest (meta : Core.Meta.t) =
  let b = Buffer.create 1024 in
  let ids =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) meta.Core.Meta.infos [])
  in
  List.iter
    (fun id ->
      let info = Hashtbl.find meta.Core.Meta.infos id in
      Printf.bprintf b "b%d %s\n" id info.Core.Meta.b_func;
      List.iter
        (fun (r : Core.Meta.restore) ->
          Printf.bprintf b " r %s c%d %b\n" (Reg.to_string r.Core.Meta.r_reg)
            r.Core.Meta.r_color r.Core.Meta.r_owned)
        info.Core.Meta.restores;
      List.iter
        (fun (g : Core.Meta.recovery) ->
          Printf.bprintf b " g %s: %s\n" (Reg.to_string g.Core.Meta.g_reg)
            (String.concat "; " (List.map Instr.to_string g.Core.Meta.g_slice)))
        info.Core.Meta.recoveries)
    ids;
  Printf.bprintf b "%s\n" (Format.asprintf "%a" Core.Meta.pp_stats meta.Core.Meta.stats);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_meta_digests () =
  let actual =
    List.concat_map
      (fun name ->
        let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
        List.map
          (fun (slug, scheme) ->
            (name, slug, meta_digest (snd (Core.Pipeline.compile scheme src))))
          builds)
      Gecko_workloads.Workload.names
  in
  Alcotest.(check (list (triple string string string))) "digests" expected_meta actual

(* Generated programs, pinned as one digest: the listing and [Meta]
   digests of 100 [generate_mixed] seeds and 100 seeds with calls and a
   split run, under every build at the default budget and at 300 (which
   drives [Regions.split] along [Wcet.worst_successor]).  A compile that
   fails contributes its exception instead.  The workload digests above
   cover 11 programs; this covers the shapes they do not. *)
let generated_digest () =
  let b = Buffer.create 4096 in
  let programs =
    List.init 100 (fun s -> Gen_prog.generate_mixed s)
    @ List.init 100 (fun s -> Gen_prog.generate ~calls:true ~runs:true s)
  in
  List.iter
    (fun src ->
      List.iter
        (fun (slug, scheme) ->
          List.iter
            (fun budget_cycles ->
              Printf.bprintf b "%s %s %d " src.Cfg.pname slug budget_cycles;
              match Core.Pipeline.compile ~budget_cycles scheme src with
              | (_, meta) as out ->
                  Printf.bprintf b "%s %s\n" (listing_digest out) (meta_digest meta)
              | exception e -> Printf.bprintf b "%s\n" (Printexc.to_string e))
            [ Core.Pipeline.default_budget; 300 ])
        builds)
    programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_generated_digest () =
  Alcotest.(check string) "digest" "75e9353397cace207e36b5da22646884" (generated_digest ())

(* How much each fix-up loop re-derives, pinned exactly for two
   programs: WAR hazard searches and the loads they walk, reaching-
   definition fixpoints, registers sliced and slice-memo hits, span
   walks run and replayed.  A loop that went back to re-analysing the
   whole program after every fix moves these numbers (fft's 26 searches
   walk 633 loads here, and 1,404 when every search walks every load;
   its 4 colouring rounds would compute a fixpoint each, hit no memo
   and run all 118 walks), so it fails here and not only on a wall
   clock.  dhrystone's 4 fixpoints are its 4 functions, once per
   compile: its two settle attempts after force-keeps reuse the facts
   and the slice memo of the first. *)
let rederivations name =
  let reg = Gecko_obs.Metrics.create () in
  let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
  ignore (Core.Pipeline.compile ~metrics:reg Core.Scheme.Gecko src);
  List.map
    (fun c -> Gecko_obs.Metrics.counter_value (Gecko_obs.Metrics.counter reg c))
    [
      "pipeline.war.searches";
      "pipeline.war.loads_walked";
      "pipeline.reaching.computes";
      "pipeline.prune.sliced";
      "pipeline.prune.slice_memo_hits";
      "pipeline.spans.walks";
      "pipeline.spans.walks_reused";
    ]

let test_rederivations () =
  let what = "searches, loads walked, fixpoints, sliced, memo hits, walks, walks reused" in
  Alcotest.(check (list int))
    ("fft: " ^ what)
    [ 26; 633; 1; 77; 90; 45; 73 ] (rederivations "fft");
  Alcotest.(check (list int))
    ("dhrystone: " ^ what)
    [ 2; 17; 4; 62; 96; 36; 62 ] (rederivations "dhrystone")

(* One set of facts per compile: however many colouring rounds and
   settle attempts a compile takes, no function's reaching definitions
   or definition sites are computed twice. *)
let test_one_fixpoint_per_function () =
  let programs =
    List.map
      (fun name -> (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build ())
      Gecko_workloads.Workload.names
    @ List.init 50 (fun s -> Gen_prog.generate ~calls:true s)
  in
  List.iter
    (fun (src : Cfg.program) ->
      List.iter
        (fun (slug, scheme) ->
          let reg = Gecko_obs.Metrics.create () in
          ignore (Core.Pipeline.compile ~metrics:reg scheme src);
          let funcs = List.length src.Cfg.funcs in
          List.iter
            (fun (what, name) ->
              let computes =
                Gecko_obs.Metrics.counter_value (Gecko_obs.Metrics.counter reg name)
              in
              if computes > funcs then
                Alcotest.failf "%s %s: %d %s over %d functions" src.Cfg.pname slug
                  computes what funcs)
            [
              ("reaching fixpoints", "pipeline.reaching.computes");
              ("definition-site tables", "pipeline.defsites.computes");
            ])
        [ ("gecko", Core.Scheme.Gecko); ("gecko-noprune", Core.Scheme.Gecko_noprune) ])
    programs

(* The colouring loop's round count (one per repair, plus one success
   per colour-emit-scan attempt) is deterministic, so it is pinned
   exactly.  dhrystone's force-keeps add two resumed attempts. *)
let coloring_rounds builds names =
  let reg = Gecko_obs.Metrics.create () in
  List.iter
    (fun name ->
      let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
      List.iter
        (fun scheme -> ignore (Core.Pipeline.compile ~metrics:reg scheme src))
        builds)
    names;
  Gecko_obs.Metrics.counter_value
    (Gecko_obs.Metrics.counter reg "pipeline.coloring.rounds")

let test_coloring_rounds () =
  Alcotest.(check int) "suite: noprune, gecko" 89
    (coloring_rounds
       [ Core.Scheme.Gecko_noprune; Core.Scheme.Gecko ]
       Gecko_workloads.Workload.names);
  Alcotest.(check int) "qsort: 8 repairs" 9
    (coloring_rounds [ Core.Scheme.Gecko ] [ "qsort" ]);
  Alcotest.(check int) "ratchet colours nothing" 0
    (coloring_rounds [ Core.Scheme.Ratchet ] [ "qsort" ])

(* Suite totals of the default GECKO build's instrumentation: boundaries,
   static checkpoint stores and slot force-keeps (all of them
   dhrystone's).  Exact counts, so a colouring or pruning change moves a
   deterministic number rather than only a wall clock. *)
let test_instrumentation_totals () =
  let metrics = Gecko_obs.Metrics.create () in
  let nb, ns =
    List.fold_left
      (fun (nb, ns) name ->
        let src = (Gecko_workloads.Workload.find name).Gecko_workloads.Workload.build () in
        let p, _ = Core.Pipeline.compile ~metrics Core.Scheme.Gecko src in
        (nb + Core.Pipeline.boundary_count p, ns + Core.Pipeline.checkpoint_store_count p))
      (0, 0) Gecko_workloads.Workload.names
  in
  let keeps =
    Gecko_obs.Metrics.counter_value
      (Gecko_obs.Metrics.counter metrics "pipeline.slot_force_keeps")
  in
  Alcotest.(check (triple int int int))
    "boundaries, checkpoint stores, force-keeps" (107, 169, 5) (nb, ns, keeps)

(* What the colouring rounds of one compile keep instead of re-deriving
   (definition sites, dominator chains, no-def verdicts, span walks)
   must equal a from-scratch analysis of the program as it stands after
   every repair.  The rounds are driven through the per-round API as
   [Pipeline.compile] drives them, on generated programs formed and
   split at budgets 4000 and 300.  Every function's definition sites are
   read before the first round, so gecko-noprune (which never reads
   them) shifts them too. *)
let kept_rederivations_exact src ~slices ~reuse ~budget =
  let p = Core.Copy.program src in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  (* The pipeline's checkpoint-overhead estimate for GECKO. *)
  let ckpt_overhead =
    (Reg.count * Cost.instr_cycles (Instr.Ckpt (Reg.r0, 0)))
    + Cost.instr_cycles (Instr.Boundary 0)
  in
  ignore (Core.Regions.split ~next_id ~budget ~ckpt_overhead p);
  let facts = Core.Candidates.facts p in
  let memo = Core.Prune.memo () in
  let spans = Core.Spans.make facts p in
  let rounds = Core.Coloring.rounds spans in
  let fail what = Alcotest.failf "%s (budget %d): %s after a repair" p.Cfg.pname budget what in
  let stores_of decisions bid =
    List.fold_left
      (fun acc (r, d) -> match d with Core.Prune.Keep -> Reg.Set.add r acc | _ -> acc)
      Reg.Set.empty
      (Option.value ~default:[] (Hashtbl.find_opt decisions bid))
  in
  let check (cands : Core.Candidates.t) decisions =
    let fresh = Core.Candidates.compute p in
    Array.iteri
      (fun fi _ ->
        List.iter
          (fun r ->
            if Core.Candidates.defsites cands fi r <> Core.Candidates.defsites fresh fi r then
              fail (Printf.sprintf "definition sites of %s" (Reg.to_string r)))
          Reg.all)
      cands.Core.Candidates.funcs;
    if reuse then begin
      let scratch = Core.Prune.memo () in
      ignore
        (Core.Prune.analyze_with ~force_keep:(fun _ -> Reg.Set.empty) ~memo:scratch
           ~slices:false ~reuse:true fresh);
      List.iter
        (fun (s : Core.Candidates.site) ->
          let id = s.Core.Candidates.s_id in
          if Core.Prune.dominators memo id <> Core.Prune.dominators scratch id then
            fail (Printf.sprintf "dominator chain of boundary %d" id))
        cands.Core.Candidates.sites;
      List.iter
        (fun (o, s, r, v) ->
          let so = Core.Candidates.site fresh o and ss = Core.Candidates.site fresh s in
          if
            v
            <> Core.Prune.no_def_between fresh ss.Core.Candidates.s_func r
                 so.Core.Candidates.s_point ss.Core.Candidates.s_point
          then fail (Printf.sprintf "no-def verdict %d -> %d of %s" o s (Reg.to_string r)))
        (Core.Prune.verdicts memo)
    end;
    let stores = stores_of decisions in
    let kept = Core.Spans.edges spans ~sites:cands.Core.Candidates.sites ~stores in
    let again =
      Core.Spans.edges
        (Core.Spans.make fresh.Core.Candidates.facts p)
        ~sites:fresh.Core.Candidates.sites ~stores
    in
    if kept <> again then fail "span edges"
  in
  let rec round n ~repaired =
    if n > 256 then Alcotest.failf "%s: colouring did not converge" p.Cfg.pname;
    let cands = Core.Candidates.compute ~facts p in
    if n = 1 then
      Array.iteri
        (fun fi _ -> ignore (Core.Candidates.defsites cands fi Reg.r0))
        cands.Core.Candidates.funcs;
    let decisions =
      Core.Prune.analyze_with ~force_keep:(Core.Coloring.forced rounds) ~memo ~slices
        ~reuse cands
    in
    if repaired then check cands decisions;
    match Core.Coloring.try_color rounds cands decisions with
    | Core.Coloring.Colored _ -> n - 1
    | Core.Coloring.Conflict c ->
        Core.Coloring.repair rounds ~next_id cands c;
        round (n + 1) ~repaired:true
  in
  round 1 ~repaired:false

let test_kept_rederivations () =
  let programs =
    List.init 60 (fun s -> Gen_prog.generate_mixed s)
    @ List.init 60 (fun s -> Gen_prog.generate ~calls:true ~runs:true s)
  in
  let repairs = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun (slices, reuse) ->
          List.iter
            (fun budget ->
              repairs := !repairs + kept_rederivations_exact src ~slices ~reuse ~budget)
            [ Core.Pipeline.default_budget; 300 ])
        [ (true, true); (false, false) ])
    programs;
  (* The property is only as strong as the repairs it sees. *)
  if !repairs < 500 then Alcotest.failf "only %d repairs checked" !repairs

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "formation" `Quick test_formation;
          Alcotest.test_case "all schemes" `Quick test_schemes_compile;
          Alcotest.test_case "pruning" `Quick test_pruning_happens;
        ] );
      ( "regions",
        [
          Alcotest.test_case "WAR cut" `Quick test_war_cut;
          Alcotest.test_case "WARAW exemption" `Quick test_waraw_exempt;
          Alcotest.test_case "may-alias not exempt" `Quick test_may_alias_not_exempt;
          Alcotest.test_case "I/O bracketing" `Quick test_io_bracketing;
          Alcotest.test_case "cut breaks an earlier WARAW exemption" `Quick
            test_cut_breaks_earlier_waraw;
          QCheck_alcotest.to_alcotest prop_cuts_match_oracle;
        ] );
      ("wcet", [ Alcotest.test_case "splitting" `Quick test_wcet_split;
                 Alcotest.test_case "split re-cuts a broken exemption" `Quick
                   test_split_recut;
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
          Alcotest.test_case "clobbered reuse is force-kept" `Quick
            test_clobbered_reuse_force_kept;
          Alcotest.test_case "repairs keep re-derivations exact" `Quick
            test_kept_rederivations;
        ] );
      ( "listings",
        [
          Alcotest.test_case "gasm and guard digests" `Quick test_listings;
          Alcotest.test_case "colouring rounds" `Quick test_coloring_rounds;
          Alcotest.test_case "instrumentation totals" `Quick
            test_instrumentation_totals;
          Alcotest.test_case "meta digests" `Quick test_meta_digests;
          Alcotest.test_case "generated programs" `Quick test_generated_digest;
          Alcotest.test_case "re-derivation counters" `Quick test_rederivations;
          Alcotest.test_case "one reaching fixpoint per function" `Quick
            test_one_fixpoint_per_function;
        ] );
    ]
