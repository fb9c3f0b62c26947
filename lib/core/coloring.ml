open Gecko_isa
module A = Gecko_analysis

(* Per register index: boundary id -> colour. *)
type t = (int, int) Hashtbl.t array

let color t bid r = Hashtbl.find t.(Reg.to_int r) bid

(* ------------------------------------------------------------------ *)
(* 2-colouring                                                         *)
(* ------------------------------------------------------------------ *)

(* A conflict: the register, its odd cycle and its directed edges. *)
type conflict = Reg.t * int list * (int * int) list

type attempt = Colored of t | Conflict of conflict

(* Registers a boundary stores, under its decisions. *)
let keeps ds =
  List.fold_left
    (fun acc (r, d) ->
      match d with
      | Prune.Keep -> Reg.Set.add r acc
      | Prune.Reuse _ | Prune.Prune _ -> acc)
    Reg.Set.empty ds

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

(* One compile's colouring rounds: the registers each repair boundary
   force-keeps, the repair inserted after each repaired node, the one
   span walker, and per register its last clean colouring: the edge list
   and stores it coloured, and the colours it gave. *)
type clean = {
  c_edges : (int * int * bool) list;
  c_nodes : int list;
  c_colors : (int, int) Hashtbl.t;
}

type rounds = {
  spans : Spans.t;
  forced : (int, Reg.Set.t) Hashtbl.t;
  after : (int, int) Hashtbl.t;
  clean : clean option array;
}

let rounds spans =
  {
    spans;
    forced = Hashtbl.create 8;
    after = Hashtbl.create 8;
    clean = Array.make Reg.count None;
  }

let forced t bid =
  Option.value ~default:Reg.Set.empty (Hashtbl.find_opt t.forced bid)

let try_color t (cands : Candidates.t) (decisions : Prune.result) =
  let sites = cands.Candidates.sites in
  let ids = Array.of_list (List.map (fun (s : Candidates.site) -> s.Candidates.s_id) sites) in
  let stored_at =
    Array.map
      (fun id -> Option.fold ~none:Reg.Set.empty ~some:keeps (Hashtbl.find_opt decisions id))
      ids
  in
  let by_id = Array.make (1 + Array.fold_left max (-1) ids) Reg.Set.empty in
  Array.iteri (fun i id -> by_id.(id) <- stored_at.(i)) ids;
  let edges = Spans.edges t.spans ~sites ~stores:(Array.get by_id) in
  (* A register no site stores has no edges and nothing to colour: the
     registers share one empty table until coloured. *)
  let stored = Array.fold_left Reg.Set.union Reg.Set.empty stored_at in
  let colors : t = Array.make Reg.count (Hashtbl.create 1) in
  let result = ref None in
  (try
     Reg.Set.iter
       (fun r ->
         let ri = Reg.to_int r in
         let nodes = ref [] in
         for i = Array.length ids - 1 downto 0 do
           if Reg.Set.mem r stored_at.(i) then nodes := ids.(i) :: !nodes
         done;
         let nodes = !nodes in
         match t.clean.(ri) with
         (* The same edge list (the walker hands an unchanged one back
            physically) over the same stores colours the same way. *)
         | Some c when c.c_edges == edges.(ri) && List.equal Int.equal c.c_nodes nodes ->
             colors.(ri) <- c.c_colors
         | Some _ | None ->
             (* Stores that provably write the same word may share a
                colour: a partial overwrite leaves the value unchanged.
                So an edge counts only when some path of its span
                redefines the register. *)
             let redges =
               List.filter_map
                 (fun (a, b, redefined) -> if redefined then Some (a, b) else None)
                 edges.(ri)
             in
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
             let parents = Hashtbl.create 16 in
             let given = Hashtbl.create 16 in
             colors.(ri) <- given;
             let give n c = Hashtbl.replace given n c in
             List.iter
               (fun start ->
                 if not (Hashtbl.mem given start) then begin
                   give start 0;
                   Hashtbl.replace parents start start;
                   let queue = Queue.create () in
                   Queue.add start queue;
                   while not (Queue.is_empty queue) do
                     let b = Queue.take queue in
                     let cb = Hashtbl.find given b in
                     List.iter
                       (fun n ->
                         match Hashtbl.find_opt given n with
                         | None ->
                             give n (1 - cb);
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
               nodes;
             t.clean.(ri) <- Some { c_edges = edges.(ri); c_nodes = nodes; c_colors = given })
       stored
   with Exit -> ());
  match !result with Some c -> c | None -> Colored colors

(* Insert a fresh boundary immediately AFTER the boundary with id [bid]:
   that position belongs exclusively to spans originating at [bid], so the
   insertion lengthens exactly the cycle edges leaving it. *)
let insert_repair t ~next_id (cands : Candidates.t) bid =
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
  Candidates.boundary_inserted cands.Candidates.facts ~func:fi at;
  Spans.boundary_inserted t.spans ~func:fi ~blk:at.A.Fgraph.blk ~after:bid

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

let repair t ~next_id cands (reg, cycle, redges) =
  let node =
    pick_repair_node ~avoid:(fun x -> Reg.Set.mem reg (forced t x)) redges cycle
  in
  (* Coalesce: several registers self-looping at the same node share one
     repair boundary.  If that repair already hosts this register (the
     cycle involves the repair itself), a fresh boundary is inserted
     between the node and its repair. *)
  match Hashtbl.find_opt t.after node with
  | Some rid when not (Reg.Set.mem reg (forced t rid)) ->
      Hashtbl.replace t.forced rid (Reg.Set.add reg (forced t rid))
  | Some _ | None ->
      Hashtbl.replace t.after node !next_id;
      Hashtbl.replace t.forced !next_id (Reg.Set.singleton reg);
      insert_repair t ~next_id cands node
