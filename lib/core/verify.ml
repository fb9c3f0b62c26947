open Gecko_isa
module A = Gecko_analysis

let idempotence p =
  (* The hazard set must be cut to empty: regions are idempotent by
     construction and re-execution after a rollback is deterministic
     without memory replay. *)
  match Regions.violations p with [] -> Ok () | errs -> Error errs

(* Independent window-clobber gate.  For every boundary [s], every slot
   its committed recovery state READS — restores (owned or reused) and
   recovery-block [LdSlot]s — must survive [s]'s crash window: the set of
   instructions executable after [s] commits and before the next boundary
   commits.  Any [Ckpt] in that window targeting a read (register,
   colour) pair clobbers the slot a crash-time rollback to [s] would
   load, unless the overwrite provably stores the identical word: it is
   reached only along window paths that do not redefine the register
   (every read slot holds the register's value at [s]).  This re-derives
   the protection property directly from the emitted instruction stream,
   independent of how pruning/colouring reasoned — it is the gate that
   catches a reused restore routed at a slot some later (e.g. repair)
   boundary overwrites.

   One scan serves three readings: [slot_clobbers] names the clobbered
   reads, which is how the pipeline decides which reuses to force-keep,
   [slots] turns every clobber into an error, and [coloring] walks the
   spans it built. *)
type scan = {
  sites : Candidates.site list;
  spans : Spans.t;
  meta : Meta.t;
  clobbers : ((int * Reg.t) * string) list;
  errs : string list;
}

let scan p (meta : Meta.t) =
  let cands = Candidates.compute p in
  let w = Spans.make cands.Candidates.facts p in
  (* Slot reads of the recovery state committed at a boundary:
     (register, colour). *)
  let reads_of (info : Meta.binfo) =
    List.map (fun (x : Meta.restore) -> (x.Meta.r_reg, x.Meta.r_color)) info.Meta.restores
    @ List.concat_map
        (fun (g : Meta.recovery) ->
          List.filter_map
            (function Instr.LdSlot (q, _, c) -> Some (q, c) | _ -> None)
            g.Meta.g_slice)
        info.Meta.recoveries
  in
  let owner_boundary fi blk idx =
    let b = cands.Candidates.graphs.(fi).A.Fgraph.blocks.(blk) in
    let rec go i = function
      | [] -> None
      | Instr.Boundary id :: _ when i > idx -> Some id
      | _ :: rest -> go (i + 1) rest
    in
    go 0 b.Cfg.instrs
  in
  (* Unexempted clobbers as ((reading boundary, register), message);
     malformed programs (a checkpoint store with no owning boundary) as
     plain messages. *)
  let clobbers = ref [] in
  let errs = ref [] in
  List.iter
    (fun (s : Candidates.site) ->
      match Meta.boundary_info meta s.Candidates.s_id with
      | None -> ()
      | Some info ->
          let reads = reads_of info in
          let regs = Reg.Set.of_list (List.map fst reads) in
          if reads <> [] then
            Spans.iter_window w s regs ~f:(fun fi blk idx instr ~redefined ->
                match instr with
                (* Reached only along paths that leave [wr] unchanged
                   since [s], the store writes the word every read slot
                   of [wr] holds. *)
                | Instr.Ckpt (wr, wc) when Reg.Set.mem wr redefined ->
                    List.iter
                      (fun (r, c) ->
                        if Reg.equal wr r && wc = c then
                          match owner_boundary fi blk idx with
                          | None ->
                              errs :=
                                Printf.sprintf
                                  "checkpoint store of %s (colour %d) in \
                                   %s has no owning boundary"
                                  (Reg.to_string wr) wc
                                  cands.Candidates.funcs.(fi).Cfg.fname
                                :: !errs
                          | Some n ->
                              clobbers :=
                                ( (s.Candidates.s_id, r),
                                  Printf.sprintf
                                    "restore of %s at boundary %d reads slot \
                                     colour %d, overwritten inside its crash \
                                     window by boundary %d's store"
                                    (Reg.to_string r) s.Candidates.s_id c n )
                                :: !clobbers)
                      reads
                | _ -> ()))
    cands.Candidates.sites;
  { sites = cands.Candidates.sites; spans = w; meta; clobbers = List.rev !clobbers; errs = List.rev !errs }

(* Registers whose checkpoint store a boundary emits, with the colour
   of each. *)
let owned_restores (meta : Meta.t) bid =
  match Meta.boundary_info meta bid with
  | None -> []
  | Some info -> List.filter (fun (x : Meta.restore) -> x.Meta.r_owned) info.Meta.restores

let coloring sc =
  let meta = sc.meta in
  let owned bid r =
    List.find_map
      (fun (x : Meta.restore) ->
        if Reg.equal x.Meta.r_reg r then Some x.Meta.r_color else None)
      (owned_restores meta bid)
  in
  let stores bid =
    Reg.Set.of_list
      (List.map (fun (x : Meta.restore) -> x.Meta.r_reg) (owned_restores meta bid))
  in
  let edges = Spans.edges sc.spans ~sites:sc.sites ~stores in
  let errs = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (b1, b2, redefined) ->
          match (owned b1 r, owned b2 r) with
          | Some c1, Some c2 when c1 = c2 && redefined ->
              errs :=
                Printf.sprintf
                  "stores %d -> %d both checkpoint %s into colour %d" b1 b2
                  (Reg.to_string r) c1
                :: !errs
          | _ -> () (* different colours, or the identical word *))
        edges.(Reg.to_int r))
    Reg.all;
  match !errs with [] -> Ok () | e -> Error (List.rev e)

let slot_clobbers sc = List.sort_uniq compare (List.map fst sc.clobbers)

let slots sc =
  match sc.errs @ List.map snd sc.clobbers with [] -> Ok () | e -> Error e

(* Atomic io_log commit: the runtime stages [Out] records per region and
   persists them only at the region commit point, so every [Out] must be
   followed (within its block, with only checkpoint stores in between) by
   the boundary that commits it.  An [Out] whose commit point is in some
   later block would leave its record staged across a control transfer —
   structurally legal for the interpreter, but outside the staged-commit
   protocol this gate certifies. *)
let io_commit (p : Cfg.program) =
  let errs = ref [] in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          let rec committed = function
            | Instr.Ckpt _ :: rest | Instr.CkptDyn _ :: rest -> committed rest
            | Instr.Boundary _ :: _ -> true
            | _ -> false
          in
          let rec scan = function
            | [] -> ()
            | Instr.Out _ :: rest ->
                if not (committed rest) then
                  errs :=
                    Printf.sprintf
                      "torn io_log commit: Out in %s/%s is not followed by \
                       its committing boundary"
                      f.Cfg.fname b.Cfg.label
                    :: !errs;
                scan rest
            | _ :: rest -> scan rest
          in
          scan b.Cfg.instrs)
        f.Cfg.blocks)
    p.Cfg.funcs;
  match !errs with [] -> Ok () | e -> Error (List.rev e)

let wcet ~budget p =
  let over = Regions.max_span p in
  if over <= budget then Ok ()
  else
    Error
      [
        Printf.sprintf "worst-case region span %d cycles exceeds budget %d" over
          budget;
      ]
