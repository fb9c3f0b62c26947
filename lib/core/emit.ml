open Gecko_isa

let insert_before_boundaries (p : Cfg.program) ckpts_for =
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          b.Cfg.instrs <-
            List.concat_map
              (fun i ->
                match i with
                | Instr.Boundary id -> ckpts_for id @ [ i ]
                | _ -> [ i ])
              b.Cfg.instrs)
        f.Cfg.blocks)
    p.Cfg.funcs

let gecko scheme (p : Cfg.program) (cands : Candidates.t)
    (decisions : Prune.result) (colors : Coloring.t) =
  let infos = Hashtbl.create 32 in
  let candidates = ref 0
  and kept = ref 0
  and reused = ref 0
  and sliced = ref 0
  and recovery_instrs = ref 0 in
  (* The colour a restore of (bid, r) reads: an owned store's own colour,
     or the owning boundary's colour for a reused slot. *)
  let restore_color bid r =
    match Hashtbl.find_opt decisions bid with
    | None -> Coloring.color colors bid r
    | Some ds -> (
        match List.find_opt (fun (x, _) -> Reg.equal x r) ds with
        | Some (_, Prune.Reuse owner) -> Coloring.color colors owner r
        | Some (_, (Prune.Keep | Prune.Prune _))
        | None ->
            Coloring.color colors bid r)
  in
  let materialize_slice bid nodes =
    List.map
      (fun n ->
        match n with
        | Prune.Nslot q -> Instr.LdSlot (q, Reg.to_int q, restore_color bid q)
        | Prune.Ninstr i -> i)
      nodes
  in
  List.iter
    (fun (s : Candidates.site) ->
      let bid = s.Candidates.s_id in
      let ds = try Hashtbl.find decisions bid with Not_found -> [] in
      let restores, recoveries =
        List.fold_left
          (fun (rs, gs) (r, d) ->
            incr candidates;
            match d with
            | Prune.Keep ->
                incr kept;
                ( {
                    Meta.r_reg = r;
                    r_color = Coloring.color colors bid r;
                    r_owned = true;
                  }
                  :: rs,
                  gs )
            | Prune.Reuse owner ->
                incr reused;
                ( {
                    Meta.r_reg = r;
                    r_color = Coloring.color colors owner r;
                    r_owned = false;
                  }
                  :: rs,
                  gs )
            | Prune.Prune nodes ->
                incr sliced;
                let slice = materialize_slice bid nodes in
                recovery_instrs := !recovery_instrs + List.length slice;
                (rs, { Meta.g_reg = r; g_slice = slice } :: gs))
          ([], []) ds
      in
      Hashtbl.replace infos bid
        {
          Meta.b_id = bid;
          b_func = cands.Candidates.funcs.(s.Candidates.s_func).Cfg.fname;
          restores = List.rev restores;
          recoveries = List.rev recoveries;
        })
    cands.Candidates.sites;
  (* Insert the checkpoint stores for owned restores only. *)
  let ckpts_for bid =
    match Hashtbl.find_opt infos bid with
    | None -> []
    | Some info ->
        List.filter_map
          (fun (r : Meta.restore) ->
            if r.Meta.r_owned then
              Some (Instr.Ckpt (r.Meta.r_reg, r.Meta.r_color))
            else None)
          info.Meta.restores
  in
  insert_before_boundaries p ckpts_for;
  let boundaries = Hashtbl.length infos in
  (* Dispatch-table footprint: an entry per boundary plus a descriptor per
     recovery block (the paper reports ~130 instructions total). *)
  let lookup_table_instrs =
    if !sliced = 0 then 0 else (2 * boundaries) + (4 * !sliced)
  in
  {
    Meta.scheme;
    infos;
    stats =
      {
        Meta.boundaries;
        candidates = !candidates;
        kept = !kept;
        pruned = !reused + !sliced;
        reused = !reused;
        recovery_blocks = !sliced;
        recovery_instrs = !recovery_instrs;
        lookup_table_instrs;
      };
    guards = [];
  }

let ratchet (p : Cfg.program) =
  let all_ckpts = List.map (fun r -> Instr.CkptDyn r) Reg.all in
  let boundaries = ref 0 in
  insert_before_boundaries p (fun _ ->
      incr boundaries;
      all_ckpts);
  {
    Meta.scheme = Scheme.Ratchet;
    infos = Hashtbl.create 1;
    stats =
      {
        Meta.boundaries = !boundaries;
        candidates = !boundaries * Reg.count;
        kept = !boundaries * Reg.count;
        pruned = 0;
        reused = 0;
        recovery_blocks = 0;
        recovery_instrs = 0;
        lookup_table_instrs = 0;
      };
    guards = [];
  }
