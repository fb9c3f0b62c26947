open Gecko_isa
module A = Gecko_analysis

let is_boundary = function Instr.Boundary _ -> true | _ -> false

let fresh next_id =
  let id = !next_id in
  incr next_id;
  Instr.Boundary id

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

let insert_in_block (b : Cfg.block) idx instr =
  let rec go i = function
    | rest when i = idx -> instr :: rest
    | [] -> [ instr ]
    | x :: rest -> x :: go (i + 1) rest
  in
  b.Cfg.instrs <- go 0 b.Cfg.instrs

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

let violations (p : Cfg.program) =
  List.map (Format.asprintf "%a" A.Alias.pp_hazard) (A.Alias.war_hazards p)
