open Gecko_isa
module A = Gecko_analysis

type node = Nslot of Reg.t | Ninstr of Instr.t

type decision = Keep | Keep_stable of int | Reuse of int | Prune of node list

type result = (int, (Reg.t * decision) list) Hashtbl.t

let max_slice_nodes = 16
let max_depth = 24

exception Unsliceable

type ctx = {
  cands : Candidates.t;
  fi : int;  (* the boundary's function *)
  g : A.Fgraph.t;
  dom : A.Dom.t;
  reaching : A.Reaching.t;
  pb : A.Fgraph.point;  (* the boundary *)
  live : Reg.Set.t;
  pruned : (int, unit) Hashtbl.t;  (* regs already pruned at this boundary *)
  pinned : (int, unit) Hashtbl.t;
      (* regs referenced as slot leaves by earlier slices: their
         checkpoints must stay *)
  target : Reg.t;  (* the register being sliced *)
  mutable emitted : node list;  (* reversed: parents before children *)
  mutable count : int;
  seen_sites : (int * int, bool) Hashtbl.t;  (* false = in progress *)
  seen_slots : (int, unit) Hashtbl.t;
}

let emit ctx node =
  ctx.count <- ctx.count + 1;
  if ctx.count > max_slice_nodes then raise Unsliceable;
  ctx.emitted <- node :: ctx.emitted

(* No definition of [q] can execute on a path from point [op] to point
   [sp] of function [fi] without re-crossing [op] (block-granular:
   entering [op]'s block crosses [op], since blocks are straight-line). *)
let no_def_between (cands : Candidates.t) fi q (op : A.Fgraph.point)
    (sp : A.Fgraph.point) =
  let ob = op.A.Fgraph.blk in
  let reaches from dst =
    dst <> ob && Candidates.reaches_avoiding cands fi ~avoid:ob ~from dst
  in
  List.for_all
    (fun (dq : A.Fgraph.point) ->
      if dq.A.Fgraph.blk = ob then
        (* Positions before [op] require re-entering the block, which
           crosses [op] first.  Positions at/after [op] run immediately —
           but when [sp] sits later in the same block, only defs strictly
           between the two points interfere (later ones must wrap around
           and re-cross [op]). *)
        dq.A.Fgraph.idx < op.A.Fgraph.idx
        || (sp.A.Fgraph.blk = ob
           && sp.A.Fgraph.idx > op.A.Fgraph.idx
           && dq.A.Fgraph.idx >= sp.A.Fgraph.idx)
      else
        let step1 = reaches ob dq.A.Fgraph.blk in
        let step2 =
          (dq.A.Fgraph.blk = sp.A.Fgraph.blk
          && dq.A.Fgraph.idx < sp.A.Fgraph.idx)
          || reaches dq.A.Fgraph.blk sp.A.Fgraph.blk
        in
        not (step1 && step2))
    (Candidates.defsites cands fi q)

(* Value preservation of [q] between [p] and the boundary: either the
   same unique definition reaches both points, or no definition of [q]
   can execute on a path from [p] to the boundary without re-crossing
   [p] (re-crossing re-executes the instruction at [p], refreshing the
   dependence with current values, so the recomputation still agrees). *)
let value_preserved ctx q p =
  A.Reaching.same_unique_def ctx.reaching q p ctx.pb
  || no_def_between ctx.cands ctx.fi q p ctx.pb

let rec slice_def ctx depth q (d : A.Reaching.def) =
  if depth > max_depth then raise Unsliceable;
  match d with
  | A.Reaching.Entry -> raise Unsliceable
  | A.Reaching.Site dp ->
      if not (A.Dom.dominates_point ctx.dom dp ctx.pb) then raise Unsliceable;
      let key = (dp.A.Fgraph.blk, dp.A.Fgraph.idx) in
      (match Hashtbl.find_opt ctx.seen_sites key with
      | Some true -> () (* already emitted *)
      | Some false ->
          (* Circular dependence: the site is still being expanded, so
             its value cannot be recomputed bottom-up. *)
          raise Unsliceable
      | None -> ());
      if Hashtbl.mem ctx.seen_sites key then ()
      else begin
        Hashtbl.replace ctx.seen_sites key false;
        let instr =
          match A.Fgraph.instr_at ctx.g dp with
          | Some i -> i
          | None -> raise Unsliceable
        in
        (match instr with
        | Instr.Li _ -> ()
        | Instr.Mov (_, s) -> need ctx (depth + 1) s dp
        | Instr.Bin (_, _, a, Instr.Oreg b) ->
            need ctx (depth + 1) a dp;
            need ctx (depth + 1) b dp
        | Instr.Bin (_, _, a, Instr.Oimm _) -> need ctx (depth + 1) a dp
        | Instr.Ld (_, m) ->
            if not (A.Alias.location_read_only ctx.cands.Candidates.prog m) then
              raise Unsliceable;
            (match m.Instr.disp with
            | Instr.Dreg i -> need ctx (depth + 1) i dp
            | Instr.Dconst _ -> ())
        | Instr.In _ | Instr.Out _ | Instr.St _ | Instr.Nop | Instr.Ckpt _
        | Instr.CkptDyn _ | Instr.LdSlot _ | Instr.Boundary _ ->
            raise Unsliceable);
        ignore q;
        Hashtbl.replace ctx.seen_sites key true;
        emit ctx (Ninstr instr)
      end

(* Obtain [q]'s value-at-[p] (proven equal to its value-at-boundary). *)
and need ctx depth q p =
  (* Even a slot read requires value preservation between [p] and the
     boundary: the slot holds the value-at-boundary. *)
  if not (value_preserved ctx q p) then raise Unsliceable;
  let slot_eligible =
    Reg.Set.mem q ctx.live
    && (not (Hashtbl.mem ctx.pruned (Reg.to_int q)))
    && not (Reg.equal q ctx.target)
  in
  if slot_eligible then begin
    if not (Hashtbl.mem ctx.seen_slots (Reg.to_int q)) then begin
      Hashtbl.replace ctx.seen_slots (Reg.to_int q) ();
      emit ctx (Nslot q)
    end
  end
  else
    match A.Reaching.unique_at ctx.reaching q ctx.pb with
    | Some d -> slice_def ctx depth q d
    | None -> raise Unsliceable

let try_slice cands fi dom reaching pb live pruned pinned r =
  let ctx =
    {
      cands;
      fi;
      g = cands.Candidates.graphs.(fi);
      dom;
      reaching;
      pb;
      live;
      pruned;
      pinned;
      target = r;
      emitted = [];
      count = 0;
      seen_sites = Hashtbl.create 8;
      seen_slots = Hashtbl.create 8;
    }
  in
  match A.Reaching.unique_at reaching r pb with
  | None | Some A.Reaching.Entry -> None
  | Some (A.Reaching.Site _ as d) -> (
      try
        slice_def ctx 0 r d;
        (* Commit the slot references: those registers must stay
           checkpointed at this boundary. *)
        Hashtbl.iter (fun q () -> Hashtbl.replace pinned q ()) ctx.seen_slots;
        Some (List.rev ctx.emitted)
      with Unsliceable -> None)

(* Phase-1 decisions per (site id, forced-keep mask).  Every input of
   [try_slice] survives a boundary insertion: reaching definitions,
   [dominates_point], [defsites] and [no_def_between] shift consistently
   with the points, and [location_read_only] and [s_live] do not move;
   [pruned] and [pinned] are local to one site. *)
type memo = {
  phase1 : (int * int, (Reg.t * decision) list) Hashtbl.t;
  mutable sliced : int;
  mutable hits : int;
}

let memo () = { phase1 = Hashtbl.create 32; sliced = 0; hits = 0 }
let memo_counts m = (m.sliced, m.hits)

let analyze_with ?(force_keep = fun _ -> Reg.Set.empty) ?memo ~slices ~reuse
    (p : Cfg.program) (cands : Candidates.t) =
  let result : result = Hashtbl.create 32 in
  (* Never prune across an unresolved dynamic hazard: if region formation
     left a may-alias WAR in some function (possible only when a caller
     bypasses {!Regions.form}), every candidate in the functions involved
     is kept verbatim — re-execution there is not idempotent, so neither
     slices (whose loads could observe clobbered locations) nor reuse can
     be justified. *)
  let hazardous = Hashtbl.create 4 in
  List.iter
    (fun (h : A.Alias.hazard) ->
      Hashtbl.replace hazardous h.A.Alias.hz_func ();
      Hashtbl.replace hazardous h.A.Alias.hz_store_func ())
    (Lazy.force cands.Candidates.hazards);
  let site_hazardous (s : Candidates.site) =
    Hashtbl.mem hazardous cands.Candidates.funcs.(s.Candidates.s_func).Cfg.fname
  in
  (* Per-function analyses, shared across the function's boundaries and
     across the colouring rounds that share [cands.facts]. *)
  let reaching fi = Lazy.force cands.Candidates.facts.Candidates.reaching.(fi) in
  let dom fi = Lazy.force cands.Candidates.facts.Candidates.doms.(fi) in
  (* Phase 1: slice-based pruning.  Without a residual hazard, a site's
     slice decisions depend only on its own inputs (see {!memo}), so a
     memo serves them again in later rounds. *)
  let cache =
    match memo with
    | Some m when slices && Lazy.force cands.Candidates.hazards = [] -> Some m
    | Some _ | None -> None
  in
  let phase1 (s : Candidates.site) forced =
    let fi = s.Candidates.s_func in
    let pruned = Hashtbl.create 8 in
    let pinned = Hashtbl.create 8 in
    List.map
      (fun r ->
        if
          (not slices) || site_hazardous s || Reg.Set.mem r forced
          || Hashtbl.mem pinned (Reg.to_int r)
        then (r, Keep)
        else begin
          Option.iter (fun m -> m.sliced <- m.sliced + 1) memo;
          match
            try_slice cands fi (dom fi) (reaching fi) s.Candidates.s_point
              s.Candidates.s_live pruned pinned r
          with
          | Some slice ->
              Hashtbl.replace pruned (Reg.to_int r) ();
              (r, Prune slice)
          | None -> (r, Keep)
        end)
      (Reg.Set.elements s.Candidates.s_live)
  in
  List.iter
    (fun (s : Candidates.site) ->
      let forced = force_keep s.Candidates.s_id in
      let decisions =
        match cache with
        | None -> phase1 s forced
        | Some m -> (
            let key =
              ( s.Candidates.s_id,
                Reg.Set.fold (fun r k -> k lor (1 lsl Reg.to_int r)) forced 0 )
            in
            match Hashtbl.find_opt m.phase1 key with
            | Some ds ->
                m.hits <- m.hits + 1;
                ds
            | None ->
                let ds = phase1 s forced in
                Hashtbl.replace m.phase1 key ds;
                ds)
      in
      Hashtbl.replace result s.Candidates.s_id decisions)
    cands.Candidates.sites;
  (* Phase 2: redundant-checkpoint elimination.  A kept checkpoint of
     [r] at site [s] is redundant when a dominating site [o] already has
     a restore of [r] (owned store, or itself a reuse of a further
     dominating store) and no definition of [r] — including call-clobber
     pseudo-definitions — can execute on a path from [o] to [s] that does
     not re-cross [o].  Then [r]'s value at [s] equals the value the
     root store saved on this very pass, so the restore can reference the
     root's slot.  Whether that slot survives the reuser's crash window
     is not checked here: the pipeline's window-clobber scan
     ({!Verify.slot_clobbers}) force-keeps every reuse it does not.

     A second pass marks the remaining owned stores whose value is
     identical at every crossing ([Keep_stable]): no definition of the
     register is reachable from the store and the function is never
     called.  Same-class stable stores may share a slot colour. *)
  let decision_for bid r =
    match Hashtbl.find_opt result bid with
    | None -> None
    | Some ds ->
        List.find_map
          (fun (x, d) -> if Reg.equal x r then Some d else None)
          ds
  in
  let set_decision bid r d =
    let ds = Hashtbl.find result bid in
    Hashtbl.replace result bid
      (List.map (fun (x, old) -> if Reg.equal x r then (x, d) else (x, old)) ds)
  in
  let callable = Hashtbl.create 8 in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          match b.Cfg.term with
          | Instr.Call (callee, _) -> Hashtbl.replace callable callee ()
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
        f.Cfg.blocks)
    p.Cfg.funcs;
  (* Per-function sites, and for each site the other sites of its
     function that dominate it (in the same order). *)
  let sites_of_func = Array.make (Array.length cands.Candidates.funcs) [] in
  List.iter
    (fun (s : Candidates.site) ->
      sites_of_func.(s.Candidates.s_func) <-
        s :: sites_of_func.(s.Candidates.s_func))
    cands.Candidates.sites;
  let dominators = Hashtbl.create 32 in
  Array.iteri
    (fun fi sites ->
      List.iter
        (fun (s : Candidates.site) ->
          Hashtbl.replace dominators s.Candidates.s_id
            (List.filter
               (fun (o : Candidates.site) ->
                 o.Candidates.s_id <> s.Candidates.s_id
                 && A.Dom.dominates_point (dom fi) o.Candidates.s_point
                      s.Candidates.s_point)
               sites))
        sites)
    sites_of_func;
  let changed = ref reuse in
  let rounds = ref 0 in
  while !changed && !rounds < 8 do
    incr rounds;
    changed := false;
    Array.iteri
      (fun fi sites ->
        List.iter
          (fun (s : Candidates.site) ->
            List.iter
              (fun r ->
                let blocked =
                  (* A repair (force_keep) is absolute in both modes:
                     colouring requested this store, so reuse must never
                     take it back. *)
                  Reg.Set.mem r (force_keep s.Candidates.s_id)
                  || site_hazardous s
                in
                match decision_for s.Candidates.s_id r with
                | Some Keep when not blocked ->
                    (* Nearest dominating site with r live and a usable
                       restore. *)
                    let doms =
                      List.filter
                        (fun (o : Candidates.site) ->
                          Reg.Set.mem r o.Candidates.s_live)
                        (Hashtbl.find dominators s.Candidates.s_id)
                    in
                    (* Nearest = dominated by all the others. *)
                    let nearest =
                      List.fold_left
                        (fun best (o : Candidates.site) ->
                          match best with
                          | None -> Some o
                          | Some b ->
                              if
                                A.Dom.dominates_point (dom fi)
                                  b.Candidates.s_point o.Candidates.s_point
                              then Some o
                              else best)
                        None doms
                    in
                    (match nearest with
                    | None -> ()
                    | Some o -> (
                        let target =
                          match decision_for o.Candidates.s_id r with
                          | Some Keep | Some (Keep_stable _) ->
                              Some o.Candidates.s_id
                          | Some (Reuse t) -> Some t
                          | Some (Prune _) | None -> None
                        in
                        match target with
                        | Some t
                          when no_def_between cands fi r
                                 o.Candidates.s_point s.Candidates.s_point ->
                            set_decision s.Candidates.s_id r (Reuse t);
                            changed := true
                        | Some _ | None -> ()))
                | Some Keep | Some (Keep_stable _) | Some (Reuse _)
                | Some (Prune _) | None ->
                    ())
              (Reg.Set.elements s.Candidates.s_live))
          sites)
      sites_of_func
  done;
  (* Normalize reuse chains: owners decided in a later round may have
     become reusers themselves; restores must reference the root owned
     store. *)
  List.iter
    (fun (s : Candidates.site) ->
      List.iter
        (fun r ->
          match decision_for s.Candidates.s_id r with
          | Some (Reuse t) ->
              let rec root t seen =
                if List.mem t seen then t
                else
                  match decision_for t r with
                  | Some (Reuse t') -> root t' (t :: seen)
                  | Some Keep | Some (Keep_stable _) | Some (Prune _) | None
                    ->
                      t
              in
              let t' = root t [] in
              if t' <> t then set_decision s.Candidates.s_id r (Reuse t')
          | Some Keep | Some (Keep_stable _) | Some (Prune _) | None -> ())
        (Reg.Set.elements s.Candidates.s_live))
    cands.Candidates.sites;
  (* Stability pass. *)
  Array.iteri
    (fun fi sites ->
      let fname = cands.Candidates.funcs.(fi).Cfg.fname in
      if not (Hashtbl.mem callable fname) then
        let reach =
          Lazy.force cands.Candidates.facts.Candidates.block_reach.(fi)
        in
        List.iter
          (fun (s : Candidates.site) ->
            List.iter
              (fun r ->
                match decision_for s.Candidates.s_id r with
                (* Forced keeps (repair boundaries) stay plain [Keep]:
                   their whole point is a fresh store whose colour
                   alternation the colouring pass relies on. *)
                | Some Keep when not (Reg.Set.mem r (force_keep s.Candidates.s_id)) ->
                    let sp = s.Candidates.s_point in
                    let stable =
                      List.for_all
                        (fun (dq : A.Fgraph.point) ->
                          let self_cycle =
                            A.Blockreach.reaches reach sp.A.Fgraph.blk
                              sp.A.Fgraph.blk
                          in
                          if dq.A.Fgraph.blk = sp.A.Fgraph.blk then
                            not (dq.A.Fgraph.idx > sp.A.Fgraph.idx || self_cycle)
                          else
                            not
                              (A.Blockreach.reaches reach sp.A.Fgraph.blk
                                 dq.A.Fgraph.blk))
                        (Candidates.defsites cands fi r)
                    in
                    if stable then
                      set_decision s.Candidates.s_id r
                        (Keep_stable
                           ((Reg.to_int r * 1_000_000) + s.Candidates.s_id))
                | Some Keep | Some (Keep_stable _) | Some (Reuse _)
                | Some (Prune _) | None ->
                    ())
              (Reg.Set.elements s.Candidates.s_live))
          sites)
    sites_of_func;
  result

let keep_all (cands : Candidates.t) =
  let result : result = Hashtbl.create 32 in
  List.iter
    (fun (s : Candidates.site) ->
      Hashtbl.replace result s.Candidates.s_id
        (List.map (fun r -> (r, Keep)) (Reg.Set.elements s.Candidates.s_live)))
    cands.Candidates.sites;
  result
