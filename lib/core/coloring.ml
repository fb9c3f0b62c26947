open Gecko_isa
module A = Gecko_analysis

type t = (int * int, int) Hashtbl.t (* (boundary id, reg index) -> colour *)

let color t bid r =
  match Hashtbl.find_opt t (bid, Reg.to_int r) with
  | Some c -> c
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* 2-colouring                                                         *)
(* ------------------------------------------------------------------ *)

type attempt =
  | Colored of t
  | Conflict of Reg.t * int list * (int * int) list
      (** register, odd cycle, that register's directed edges *)

let decision_of (decisions : Prune.result) bid r =
  match Hashtbl.find_opt decisions bid with
  | None -> None
  | Some ds ->
      List.find_map
        (fun (x, d) -> if Reg.equal x r then Some d else None)
        ds

(* Registers a boundary stores, under the decisions. *)
let stores_of (decisions : Prune.result) =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun bid ds ->
      Hashtbl.replace tbl bid
        (List.fold_left
           (fun acc (r, d) ->
             match d with
             | Prune.Keep | Prune.Keep_stable _ -> Reg.Set.add r acc
             | Prune.Reuse _ | Prune.Prune _ -> acc)
           Reg.Set.empty ds))
    decisions;
  fun bid -> Option.value ~default:Reg.Set.empty (Hashtbl.find_opt tbl bid)

(* Stores that provably write the same word may share a colour: a
   partial overwrite leaves the value unchanged.  Two cases: same
   stability class (globally crossing-invariant values), or no path of
   the span between the two stores defines the register. *)
let exempt_edge decisions r (a, b, redefined) =
  (not redefined)
  ||
  match (decision_of decisions a r, decision_of decisions b r) with
  | Some (Prune.Keep_stable ca), Some (Prune.Keep_stable cb) -> ca = cb
  | _ -> false

(* Recover the odd cycle from the BFS parent map when edge (u, v) closes
   it: tree path u -> lca plus reversed tree path v -> lca. *)
let recover_cycle parents u v =
  let rec ancestors x acc =
    match Hashtbl.find_opt parents x with
    | Some p when p <> x -> ancestors p (x :: acc)
    | _ -> x :: acc
  in
  let au = List.rev (ancestors u []) (* u, parent u, ..., root *) in
  let in_au = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace in_au x ()) au;
  let rec climb x acc =
    if Hashtbl.mem in_au x then (x, List.rev acc)
    else
      match Hashtbl.find_opt parents x with
      | Some p when p <> x -> climb p (x :: acc)
      | _ -> (x, List.rev acc)
  in
  let lca, v_part = climb v [] in
  let rec take_until acc = function
    | [] -> List.rev acc
    | x :: _ when x = lca -> List.rev (x :: acc)
    | x :: rest -> take_until (x :: acc) rest
  in
  let u_part = take_until [] au (* u ... lca *) in
  u_part @ List.rev v_part

let try_color (cands : Candidates.t) (decisions : Prune.result) =
  let stores = stores_of decisions in
  let edges = Spans.edges (Spans.make cands) ~stores in
  (* A register no site stores has no edges and nothing to colour. *)
  let stored =
    List.fold_left
      (fun acc (s : Candidates.site) ->
        Reg.Set.union acc (stores s.Candidates.s_id))
      Reg.Set.empty cands.Candidates.sites
  in
  let colors : t = Hashtbl.create 64 in
  let result = ref None in
  (try
     Reg.Set.iter
       (fun r ->
         let ri = Reg.to_int r in
         let stops bid = Reg.Set.mem r (stores bid) in
         let redges =
           List.filter_map
             (fun ((a, b, _) as e) ->
               if exempt_edge decisions r e then None else Some (a, b))
             edges.(ri)
         in
         begin
           (* Self-loops are odd cycles of length one. *)
           (match List.find_opt (fun (a, b) -> a = b) redges with
           | Some (a, _) ->
               result := Some (Conflict (r, [ a ], redges));
               raise Exit
           | None -> ());
           let nbrs = Hashtbl.create 16 in
           let add_nbr a b =
             let old = try Hashtbl.find nbrs a with Not_found -> [] in
             Hashtbl.replace nbrs a (b :: old)
           in
           List.iter
             (fun (a, b) ->
               add_nbr a b;
               add_nbr b a)
             redges;
           let nodes =
             List.filter_map
               (fun (s : Candidates.site) ->
                 if stops s.Candidates.s_id then Some s.Candidates.s_id
                 else None)
               cands.Candidates.sites
           in
           let parents = Hashtbl.create 16 in
           List.iter
             (fun start ->
               if not (Hashtbl.mem colors (start, ri)) then begin
                 Hashtbl.replace colors (start, ri) 0;
                 Hashtbl.replace parents start start;
                 let queue = Queue.create () in
                 Queue.add start queue;
                 while not (Queue.is_empty queue) do
                   let b = Queue.take queue in
                   let cb = Hashtbl.find colors (b, ri) in
                   List.iter
                     (fun n ->
                       match Hashtbl.find_opt colors (n, ri) with
                       | None ->
                           Hashtbl.replace colors (n, ri) (1 - cb);
                           Hashtbl.replace parents n b;
                           Queue.add n queue
                       | Some cn ->
                           if cn = cb && n <> b then begin
                             result :=
                               Some
                                 (Conflict
                                    (r, recover_cycle parents b n, redges));
                             raise Exit
                           end)
                     (try Hashtbl.find nbrs b with Not_found -> [])
                 done
               end)
             nodes
         end)
       stored
   with Exit -> ());
  match !result with Some c -> c | None -> Colored colors

(* Insert a fresh boundary immediately AFTER the boundary with id [bid]:
   that position belongs exclusively to spans originating at [bid], so the
   insertion lengthens exactly the cycle edges leaving it. *)
let insert_repair ~next_id (cands : Candidates.t) bid =
  let s = Candidates.site cands bid in
  let fi = s.Candidates.s_func in
  let pt = s.Candidates.s_point in
  let at = { pt with A.Fgraph.idx = pt.A.Fgraph.idx + 1 } in
  let blk = cands.Candidates.graphs.(fi).A.Fgraph.blocks.(at.A.Fgraph.blk) in
  let id = !next_id in
  incr next_id;
  let rec go i = function
    | rest when i = at.A.Fgraph.idx -> Instr.Boundary id :: rest
    | [] -> [ Instr.Boundary id ]
    | x :: rest -> x :: go (i + 1) rest
  in
  blk.Cfg.instrs <- go 0 blk.Cfg.instrs;
  Candidates.boundary_inserted cands.Candidates.facts ~func:fi at

(* Pick the cycle node to repair after.  The insertion point just after a
   boundary X reroutes exactly the spans leaving X, so the chosen node
   must be the source of a directed cycle edge; a node with out-degree 1
   is ideal (the rewiring is private to the cycle edge and cannot flip
   the parity of unrelated cycles).  A node [avoid] holds (a repair
   boundary already hosting the conflicting register) is passed over
   while the cycle has another source: repairing after it only moves
   the same odd cycle onto the next repair, round after round. *)
let pick_repair_node ~avoid edges cycle =
  match cycle with
  | [] -> invalid_arg "Coloring.pick_repair_node: empty cycle"
  | [ x ] -> x (* self-loop *)
  | first :: _ ->
      let out_deg x =
        List.length (List.filter (fun (a, b) -> a = x && b <> x) edges)
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | [ last ] -> [ (last, first) ]
        | [] -> []
      in
      let candidates =
        List.concat_map
          (fun (a, b) ->
            let fwd = if List.mem (a, b) edges then [ a ] else [] in
            let bwd = if List.mem (b, a) edges then [ b ] else [] in
            fwd @ bwd)
          (pairs cycle)
      in
      let candidates =
        match List.filter (fun x -> not (avoid x)) candidates with
        | [] -> candidates
        | fresh -> fresh
      in
      let best =
        List.fold_left
          (fun acc x ->
            match acc with
            | None -> Some x
            | Some y -> if out_deg x < out_deg y then Some x else acc)
          None candidates
      in
      (match best with Some x -> x | None -> first)

(* What a colouring call leaves behind for the next one on the same
   program: the repair boundaries, with the registers each force-keeps. *)
type state = {
  repairs : (int, Reg.Set.t) Hashtbl.t;
  repair_at : (int, int) Hashtbl.t;
}

type outcome = {
  cands : Candidates.t;
  decisions : Prune.result;
  colors : t;
  rounds : int;
  state : state;
}

let assign ?resume ?metrics ~next_id ~analyze (p : Cfg.program) =
  (* A repair boundary neither uses nor defines a register, so liveness,
     clobbers, dominators and block reachability hold for every round,
     and the reaching definitions only shift ([insert_repair] moves them
     along).  It also sits directly after an existing boundary, so it
     can only cut WAR paths: an empty hazard set stays empty, while a
     non-empty one (whose positions shift) is recomputed.  The phase-1
     slice memo rests on the same invariants. *)
  let repairs, repair_at =
    match resume with
    | Some s -> (s.repairs, s.repair_at)
    | None -> (Hashtbl.create 8, Hashtbl.create 8)
  in
  let facts = Candidates.facts p in
  let memo = Prune.memo () in
  let rec loop round hazards =
    if round > 256 then failwith "Coloring.assign: did not converge";
    (* Decisions are recomputed after every insertion.  A repair boundary
       force-keeps exactly the problematic register (the paper's
       "additional checkpoint that saves the problematic register to a
       different index"): the forced keeps are passed INTO the analysis —
       not patched in afterwards — so the reuse pass can neither reuse
       them away (reverting the alternation) nor route another site's
       restore at a slot the repair's own store would clobber inside that
       site's crash window; its other live-ins are treated normally. *)
    let cands = Candidates.compute ~facts ~hazards p in
    let force_keep bid =
      match Hashtbl.find_opt repairs bid with
      | Some regs -> regs
      | None -> Reg.Set.empty
    in
    let decisions = analyze ~force_keep ~memo p cands in
    match try_color cands decisions with
    | Colored colors ->
        {
          cands;
          decisions;
          colors;
          rounds = round + 1;
          state = { repairs; repair_at };
        }
    | Conflict (reg, cycle, redges) ->
        let avoid x =
          match Hashtbl.find_opt repairs x with
          | Some regs -> Reg.Set.mem reg regs
          | None -> false
        in
        let node = pick_repair_node ~avoid redges cycle in
        (* Coalesce: several registers self-looping at the same node
           share one repair boundary.  If that repair already hosts this
           register (the cycle involves the repair itself), a fresh
           boundary is inserted between the node and its repair. *)
        let coalesced =
          match Hashtbl.find_opt repair_at node with
          | Some rid ->
              let old =
                try Hashtbl.find repairs rid with Not_found -> Reg.Set.empty
              in
              if Reg.Set.mem reg old then false
              else begin
                Hashtbl.replace repairs rid (Reg.Set.add reg old);
                true
              end
          | None -> false
        in
        if not coalesced then begin
          Hashtbl.replace repair_at node !next_id;
          Hashtbl.replace repairs !next_id (Reg.Set.singleton reg);
          insert_repair ~next_id cands node
        end;
        loop (round + 1)
          (match hazards with [] -> [] | _ :: _ -> A.Alias.war_hazards p)
  in
  let out = loop 0 (A.Alias.war_hazards p) in
  Candidates.release facts;
  Option.iter
    (fun reg ->
      let add name n = Gecko_obs.Metrics.incr ~by:n (Gecko_obs.Metrics.counter reg name) in
      let sliced, hits = Prune.memo_counts memo in
      add "pipeline.reaching.computes"
        (Array.fold_left
           (fun n l -> if Lazy.is_val l then n + 1 else n)
           0 facts.Candidates.reaching);
      add "pipeline.prune.sliced" sliced;
      add "pipeline.prune.slice_memo_hits" hits)
    metrics;
  out
