open Gecko_isa
module A = Gecko_analysis

type node = Nslot of Reg.t | Ninstr of Instr.t

type decision = Keep | Reuse of int | Prune of node list

type result = (int, (Reg.t * decision) list) Hashtbl.t

let max_slice_nodes = 16

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

let rec slice_def ctx (d : A.Reaching.def) =
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
        | Instr.Mov (_, s) -> need ctx s dp
        | Instr.Bin (_, _, a, Instr.Oreg b) ->
            need ctx a dp;
            need ctx b dp
        | Instr.Bin (_, _, a, Instr.Oimm _) -> need ctx a dp
        | Instr.Ld (_, m) ->
            if not (A.Alias.location_read_only ctx.cands.Candidates.prog m) then
              raise Unsliceable;
            (match m.Instr.disp with
            | Instr.Dreg i -> need ctx i dp
            | Instr.Dconst _ -> ())
        | Instr.In _ | Instr.Out _ | Instr.St _ | Instr.Nop | Instr.Ckpt _
        | Instr.CkptDyn _ | Instr.LdSlot _ | Instr.Boundary _ ->
            raise Unsliceable);
        Hashtbl.replace ctx.seen_sites key true;
        emit ctx (Ninstr instr)
      end

(* Obtain [q]'s value-at-[p] (proven equal to its value-at-boundary). *)
and need ctx q p =
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
    | Some d -> slice_def ctx d
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
        slice_def ctx d;
        (* Commit the slot references: those registers must stay
           checkpointed at this boundary. *)
        Hashtbl.iter (fun q () -> Hashtbl.replace pinned q ()) ctx.seen_slots;
        Some (List.rev ctx.emitted)
      with Unsliceable -> None)

(* What a boundary insertion cannot change, kept for one compile.

   [phase1]: slice decisions per (site id, forced-keep mask).  Every
   input of [try_slice] survives a boundary insertion: reaching
   definitions, [dominates_point], [defsites] and [no_def_between] shift
   consistently with the points, and [location_read_only] and [s_live]
   do not move; [pruned] and [pinned] are local to one site.

   [chains]: per site id, the ids of its function's other sites that
   dominate it, nearest first.  Dominance between two existing sites
   does not move, and a new site joins the chains in {!add_site}.

   [no_def]: [no_def_between] verdicts of the reuse pass per (owner id,
   site id, register), invariant for the same reason. *)
type memo = {
  phase1 : (int, (Reg.t * decision) list) Hashtbl.t;
  chains : (int, int list) Hashtbl.t;
  no_def : (int, bool) Hashtbl.t;
  mutable sliced : int;
  mutable hits : int;
}

let memo () =
  {
    phase1 = Hashtbl.create 32;
    chains = Hashtbl.create 64;
    no_def = Hashtbl.create 256;
    sliced = 0;
    hits = 0;
  }

let memo_counts m = (m.sliced, m.hits)
let dominators m bid = Hashtbl.find m.chains bid

(* (owner, site, register) as [(owner lsl 32) lor (site lsl 4) lor r]:
   site ids stay below 2^28 and registers below 16. *)
let no_def_key o s r = (o lsl 32) lor (s lsl 4) lor Reg.to_int r

let verdicts m =
  Hashtbl.fold
    (fun k v acc ->
      (k lsr 32, (k lsr 4) land 0xfffffff, Reg.of_int (k land 15), v) :: acc)
    m.no_def []

(* [id] goes into a chain just before [x], its nearest dominator there,
   or last when it has none ([x] = -1). *)
let rec insert_before x id = function
  | o :: rest when o <> x -> o :: insert_before x id rest
  | rest -> id :: rest

(* A site not yet in [chains]: the known sites of its function that
   dominate it form a chain, so its own chain is its nearest dominator
   (the one every other dominates) followed by that one's chain; and
   every known site it dominates gains it just before that nearest
   dominator.  For a repair boundary R inserted right after X, that is
   X :: chain X, and R joins every chain that holds X. *)
let add_site memo dom (sites : Candidates.site array) (s : Candidates.site) =
  let fi = s.Candidates.s_func in
  let dominates (a : Candidates.site) (b : Candidates.site) =
    A.Dom.dominates_point dom a.Candidates.s_point b.Candidates.s_point
  in
  let known =
    Array.fold_right
      (fun (o : Candidates.site) acc ->
        if o.Candidates.s_func = fi && Hashtbl.mem memo.chains o.Candidates.s_id
        then o :: acc
        else acc)
      sites []
  in
  let nearest =
    List.fold_left
      (fun best o ->
        if not (dominates o s) then best
        else
          match best with
          | Some b when not (dominates b o) -> best
          | Some _ | None -> Some o)
      None known
  in
  let x = match nearest with Some o -> o.Candidates.s_id | None -> -1 in
  List.iter
    (fun (y : Candidates.site) ->
      if dominates s y then
        Hashtbl.replace memo.chains y.Candidates.s_id
          (insert_before x s.Candidates.s_id (Hashtbl.find memo.chains y.Candidates.s_id)))
    known;
  Hashtbl.replace memo.chains s.Candidates.s_id
    (match nearest with Some o -> x :: Hashtbl.find memo.chains o.Candidates.s_id | None -> [])

let analyze_with ~force_keep ~memo ~slices ~reuse (cands : Candidates.t) =
  let result : result = Hashtbl.create 32 in
  (* Per-function analyses, shared across the function's boundaries and
     across the colouring rounds that share [cands.facts]. *)
  let reaching fi = Lazy.force cands.Candidates.facts.Candidates.reaching.(fi) in
  let dom fi = Lazy.force cands.Candidates.facts.Candidates.doms.(fi) in
  (* Phase 1: slice-based pruning.  A site's slice decisions depend only
     on its own inputs (see {!memo}), so a memo serves them again in
     later rounds. *)
  let phase1 (s : Candidates.site) forced =
    let fi = s.Candidates.s_func in
    let pruned = Hashtbl.create 8 in
    let pinned = Hashtbl.create 8 in
    List.map
      (fun r ->
        if
          (not slices) || Reg.Set.mem r forced
          || Hashtbl.mem pinned (Reg.to_int r)
        then (r, Keep)
        else begin
          memo.sliced <- memo.sliced + 1;
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
        if not slices then phase1 s forced
        else
          let key =
            Reg.Set.fold
              (fun r k -> k lor (1 lsl Reg.to_int r))
              forced
              (s.Candidates.s_id lsl Reg.count)
          in
          match Hashtbl.find_opt memo.phase1 key with
          | Some ds ->
              memo.hits <- memo.hits + 1;
              ds
          | None ->
              let ds = phase1 s forced in
              Hashtbl.replace memo.phase1 key ds;
              ds
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

     One pass decides every reuse.  Whether [s] reuses depends on its
     nearest dominating site [o] and on [no_def_between], both fixed,
     and on [o]'s decision being [Keep] or [Reuse].  The pass only turns
     a [Keep] into a [Reuse], which is still a target, so a second pass
     could change nothing; the chain normalisation below re-roots every
     reuse at its owned store. *)
  if reuse then begin
    (* The pass reads and writes decisions by (site, register): a dense
       table over site positions, written back into [result] at the
       end.  A register a site does not have live has no entry. *)
    let sites = Array.of_list cands.Candidates.sites in
    (* Site id -> position in [sites], or -1. *)
    let pos =
      Array.make
        (1 + Array.fold_left (fun m (s : Candidates.site) -> max m s.Candidates.s_id) 0 sites)
        (-1)
    in
    Array.iteri (fun i (s : Candidates.site) -> pos.(s.Candidates.s_id) <- i) sites;
    let table =
      Array.map
        (fun (s : Candidates.site) ->
          let row = Array.make Reg.count None in
          List.iter
            (fun (r, d) -> row.(Reg.to_int r) <- Some d)
            (Hashtbl.find result s.Candidates.s_id);
          row)
        sites
    in
    let changed = Array.make (Array.length sites) false in
    let decision_for i r = table.(i).(Reg.to_int r) in
    let set_decision i r d =
      table.(i).(Reg.to_int r) <- Some d;
      changed.(i) <- true
    in
    Array.iter
      (fun (s : Candidates.site) ->
        if not (Hashtbl.mem memo.chains s.Candidates.s_id) then
          add_site memo (dom s.Candidates.s_func) sites s)
      sites;
    Array.iteri
      (fun si (s : Candidates.site) ->
        let fi = s.Candidates.s_func in
        let sid = s.Candidates.s_id in
        (* The ids of the sites that dominate [s], nearest first. *)
        let dominators = Hashtbl.find memo.chains sid in
        (* A repair (force_keep) is absolute: colouring requested this
           store, so reuse must never take it back. *)
        let blocked = force_keep sid in
        Reg.Set.iter
          (fun r ->
            match decision_for si r with
            | Some Keep when not (Reg.Set.mem r blocked) -> (
                (* Nearest dominating site with r live and a usable
                   restore. *)
                match
                  List.find_opt
                    (fun o -> Reg.Set.mem r sites.(pos.(o)).Candidates.s_live)
                    dominators
                with
                | None -> ()
                | Some o -> (
                    let oi = pos.(o) in
                    let o = sites.(oi) in
                    let oid = o.Candidates.s_id in
                    let target =
                      match decision_for oi r with
                      | Some Keep -> Some oid
                      | Some (Reuse t) -> Some t
                      | Some (Prune _) | None -> None
                    in
                    let no_def () =
                      let key = no_def_key oid sid r in
                      match Hashtbl.find_opt memo.no_def key with
                      | Some v -> v
                      | None ->
                          let v =
                            no_def_between cands fi r o.Candidates.s_point s.Candidates.s_point
                          in
                          Hashtbl.replace memo.no_def key v;
                          v
                    in
                    match target with
                    | Some t when no_def () -> set_decision si r (Reuse t)
                    | Some _ | None -> ()))
            | Some Keep | Some (Reuse _) | Some (Prune _) | None -> ())
          s.Candidates.s_live)
      sites;
    (* Normalize reuse chains: an owner decided later in the pass may
       have become a reuser itself; restores must reference the root
       owned store. *)
    Array.iteri
      (fun si (s : Candidates.site) ->
        Reg.Set.iter
          (fun r ->
            match decision_for si r with
            | Some (Reuse t) ->
                let rec root t seen =
                  if List.mem t seen then t
                  else
                    let ti = if t < Array.length pos then pos.(t) else -1 in
                    match if ti < 0 then None else decision_for ti r with
                    | Some (Reuse t') -> root t' (t :: seen)
                    | Some Keep | Some (Prune _) | None -> t
                in
                let t' = root t [] in
                if t' <> t then set_decision si r (Reuse t')
            | Some Keep | Some (Prune _) | None -> ())
          s.Candidates.s_live)
      sites;
    Array.iteri
      (fun i (s : Candidates.site) ->
        if changed.(i) then
          Hashtbl.replace result s.Candidates.s_id
            (List.map
               (fun (r, _) -> (r, Option.get table.(i).(Reg.to_int r)))
               (Hashtbl.find result s.Candidates.s_id)))
      sites
  end;
  result
