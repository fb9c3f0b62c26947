open Gecko_isa
module A = Gecko_analysis

let is_boundary = function Instr.Boundary _ -> true | _ -> false

let fresh next_id =
  let id = !next_id in
  incr next_id;
  Instr.Boundary id

let insert_in_block (b : Cfg.block) idx instr =
  let rec go i = function
    | rest when i = idx -> instr :: rest
    | [] -> [ instr ]
    | x :: rest -> x :: go (i + 1) rest
  in
  b.Cfg.instrs <- go 0 b.Cfg.instrs

(* Insert a boundary at the head of a block unless one is already there. *)
let boundary_at_head next_id (b : Cfg.block) =
  match b.Cfg.instrs with
  | i :: _ when is_boundary i -> 0
  | _ ->
      b.Cfg.instrs <- fresh next_id :: b.Cfg.instrs;
      1

(* Rebuild a block so every I/O instruction is bracketed by boundaries. *)
let bracket_io next_id (b : Cfg.block) =
  let inserted = ref 0 in
  let rec go prev_was_boundary = function
    | [] -> []
    | i :: rest when Instr.is_io i ->
        let before =
          if prev_was_boundary then []
          else begin
            incr inserted;
            [ fresh next_id ]
          end
        in
        let after =
          match rest with
          | r :: _ when is_boundary r -> []
          | _ ->
              incr inserted;
              [ fresh next_id ]
        in
        before @ (i :: after) @ go (after <> []) rest
    | i :: rest -> i :: go (is_boundary i) rest
  in
  b.Cfg.instrs <- go false b.Cfg.instrs;
  !inserted

let structural_pass next_id (p : Cfg.program) =
  let inserted = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      let g = A.Fgraph.of_func f in
      let dom = A.Dom.compute g in
      let loops = A.Loops.compute g dom in
      (* Entry block. *)
      inserted := !inserted + boundary_at_head next_id (Cfg.entry_block f);
      (* Loop headers. *)
      List.iter
        (fun h ->
          inserted :=
            !inserted + boundary_at_head next_id g.A.Fgraph.blocks.(h))
        (A.Loops.headers loops);
      (* Call-return blocks. *)
      List.iter
        (fun (b : Cfg.block) ->
          match b.Cfg.term with
          | Instr.Call (_, ret) ->
              inserted :=
                !inserted + boundary_at_head next_id (Cfg.find_block f ret)
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
        f.Cfg.blocks;
      (* I/O bracketing. *)
      List.iter
        (fun b -> inserted := !inserted + bracket_io next_id b)
        f.Cfg.blocks)
    p.Cfg.funcs;
  !inserted

(* Anti-dependence cuts: the may-alias WAR/WARAW hazard set lives in the
   analysis layer ({!A.Alias.first_hazard}); region formation resolves
   each hazard by inserting a boundary immediately before the offending
   store, so a rollback can never land between the load and the store.

   One cut at a time, always the first hazard in program order.  A cut
   only truncates forward walks, so every load before the cut hazard's
   load stays hazard-free and the next search resumes there -- or at the
   start of the cut's block, if that comes first: a load after the new
   boundary in that block can lose its WARAW exemption. *)

let war_fixpoint ?metrics next_id (p : Cfg.program) =
  let w = A.Alias.walker p in
  let blocks =
    Array.of_list (List.map (fun (f : Cfg.func) -> Array.of_list f.Cfg.blocks) p.Cfg.funcs)
  in
  let index = Hashtbl.create 8 in
  List.iteri
    (fun fi (f : Cfg.func) ->
      if not (Hashtbl.mem index f.Cfg.fname) then Hashtbl.add index f.Cfg.fname fi)
    p.Cfg.funcs;
  let searches = ref 0 and walked = ref 0 in
  let rec go from cuts =
    incr searches;
    match A.Alias.first_hazard ~walked w ~from with
    | None -> cuts
    | Some hz ->
        let sfi = Hashtbl.find index hz.A.Alias.hz_store_func in
        let sblk, sidx = hz.A.Alias.hz_store in
        insert_in_block blocks.(sfi).(sblk) sidx (fresh next_id);
        A.Alias.refresh_block w ~func:sfi ~blk:sblk;
        let lblk, lidx = hz.A.Alias.hz_load in
        let load = (Hashtbl.find index hz.A.Alias.hz_func, lblk, lidx) in
        go (min load (sfi, sblk, 0)) (cuts + 1)
  in
  let cuts = go (0, 0, 0) 0 in
  Option.iter
    (fun reg ->
      let add name n = Gecko_obs.Metrics.incr ~by:n (Gecko_obs.Metrics.counter reg name) in
      add "pipeline.war.searches" !searches;
      add "pipeline.war.loads_walked" !walked)
    metrics;
  cuts

let form ?metrics ~next_id p =
  let a = structural_pass next_id p in
  (* The hazard set is cut to empty: regions stay idempotent by
     construction, so re-execution after a rollback is deterministic
     without any memory replay.  What the pipeline speculates on is
     downstream checkpoint slot reuse (settled at compile time; see
     {!Prune} and {!Pipeline}), not the anti-dependence discipline. *)
  let b = war_fixpoint ?metrics next_id p in
  a + b

(* --- WCET splitting --------------------------------------------------- *)

(* Walk the worst-case path from [start] accumulating cost; insert a
   boundary at the first point where the accumulated cost reaches
   [target].  Points inside a WARAW-protected interval ([avoid]) are
   skipped when possible -- a boundary between an exempting store and its
   load would break the exemption and force a WAR cut before the
   follow-up store.  The first avoided point is the fallback for a walk
   that reaches the span's closing [Boundary] first: a cut in front of
   it would split nothing, and the same cut would be chosen again. *)
let cut_along_worst g wcet start target ~avoid =
  let rec walk (p : A.Fgraph.point) acc fallback =
    match A.Wcet.worst_successor wcet p with
    | None -> fallback
    | Some next -> (
        let cost =
          match A.Fgraph.instr_at g p with
          | Some i -> Cost.instr_cycles i
          | None -> Cost.term_cycles g.A.Fgraph.blocks.(p.A.Fgraph.blk).Cfg.term
        in
        let acc = acc + cost in
        if acc < target then walk next acc fallback
        else
          match A.Fgraph.instr_at g next with
          | Some (Instr.Boundary _) -> fallback
          | Some _ | None ->
              if not (avoid next) then Some next
              else walk next acc (if fallback = None then Some next else fallback))
  in
  walk start 0 None

let by_wcet ~next_id ~budget ~ckpt_overhead (p : Cfg.program) =
  let inserted = ref 0 in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ do
    incr rounds;
    if !rounds > 10_000 then
      invalid_arg "Regions.split: did not converge (budget too small?)";
    continue_ := false;
    List.iter
      (fun (f : Cfg.func) ->
        let g = A.Fgraph.of_func f in
        let wcet = A.Wcet.compute g in
        (* Recomputed every round: insertions shift block indices. *)
        let protected_ = A.Alias.waraw_protected_intervals f in
        let avoid (pt : A.Fgraph.point) =
          List.exists
            (fun (bi, lo, hi) ->
              pt.A.Fgraph.blk = bi && pt.A.Fgraph.idx >= lo
              && pt.A.Fgraph.idx <= hi)
            protected_
        in
        let spans = A.Wcet.boundary_spans wcet in
        let oversize =
          List.find_opt (fun (_, _, span) -> span + ckpt_overhead > budget) spans
        in
        match oversize with
        | None -> ()
        | Some (_, bpoint, span) ->
            let eff_budget = budget - ckpt_overhead in
            if eff_budget <= 8 then
              invalid_arg
                (Printf.sprintf
                   "Regions.split: budget %d too small (checkpoint overhead %d)"
                   budget ckpt_overhead);
            let start =
              { bpoint with A.Fgraph.idx = bpoint.A.Fgraph.idx + 1 }
            in
            let target = min (eff_budget / 2) (span / 2) in
            let target = max target 1 in
            (match cut_along_worst g wcet start target ~avoid with
            | Some cut_point ->
                insert_in_block
                  g.A.Fgraph.blocks.(cut_point.A.Fgraph.blk)
                  cut_point.A.Fgraph.idx (fresh next_id);
                incr inserted;
                continue_ := true
            | None ->
                invalid_arg
                  "Regions.split: cannot find a cut point (single instruction \
                   exceeds the budget?)"))
      p.Cfg.funcs
  done;
  !inserted

(* A fallback cut may have broken a WARAW exemption, so the WAR cuts
   resume after any WCET cut; without one the program is still
   hazard-free. *)
let split ?metrics ~next_id ~budget ~ckpt_overhead p =
  match by_wcet ~next_id ~budget ~ckpt_overhead p with
  | 0 -> 0
  | cuts -> cuts + war_fixpoint ?metrics next_id p

let max_span (p : Cfg.program) =
  List.fold_left
    (fun acc (f : Cfg.func) ->
      let g = A.Fgraph.of_func f in
      let wcet = A.Wcet.compute g in
      List.fold_left
        (fun acc (_, _, span) -> max acc span)
        (max acc (A.Wcet.entry_span wcet))
        (A.Wcet.boundary_spans wcet))
    0 p.Cfg.funcs

let violations (p : Cfg.program) =
  List.map (Format.asprintf "%a" A.Alias.pp_hazard) (A.Alias.war_hazards p)
