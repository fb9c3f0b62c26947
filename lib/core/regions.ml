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
   analysis layer ({!A.Alias.war_hazards}); region formation resolves each
   hazard by inserting a boundary immediately before the offending store,
   so a rollback can never land between the load and the store.
   [Speculative] uses the syntactic verdicts; [Legacy] reproduces the
   seed's analysis (intraprocedural, optimistic WARAW scan) — only the
   soundness-overhead measurement baseline compiles with it. *)

let hazards ?(mode = Mode.default) (p : Cfg.program) =
  A.Alias.war_hazards ~legacy:(mode = Mode.Legacy) p

let insert_in_block (b : Cfg.block) idx instr =
  let rec go i = function
    | rest when i = idx -> instr :: rest
    | [] -> [ instr ]
    | x :: rest -> x :: go (i + 1) rest
  in
  b.Cfg.instrs <- go 0 b.Cfg.instrs

let func_by_name (p : Cfg.program) name =
  List.find (fun (f : Cfg.func) -> f.Cfg.fname = name) p.Cfg.funcs

let rec war_fixpoint ~mode next_id (p : Cfg.program) acc =
  match hazards ~mode p with
  | [] -> acc
  | hz :: _ ->
      let f = func_by_name p hz.A.Alias.hz_store_func in
      let sblk, sidx = hz.A.Alias.hz_store in
      let blk = List.nth f.Cfg.blocks sblk in
      insert_in_block blk sidx (fresh next_id);
      war_fixpoint ~mode next_id p (acc + 1)

let form ?(mode = Mode.default) ~next_id p =
  let a = structural_pass next_id p in
  (* Every mode cuts its hazard set to empty — [Speculative] included:
     regions stay idempotent by construction, so re-execution after a
     rollback is deterministic without any memory replay.  What
     [Speculative] speculates on is downstream checkpoint slot reuse
     (runtime-guarded; see {!Prune} and {!Pipeline}), not the
     anti-dependence discipline. *)
  let b = war_fixpoint ~mode next_id p 0 in
  a + b

let violations ?(mode = Mode.default) (p : Cfg.program) =
  List.map (Format.asprintf "%a" A.Alias.pp_hazard) (hazards ~mode p)
