open Gecko_isa
module A = Gecko_analysis

type site = {
  s_id : int;
  s_func : int;
  s_point : A.Fgraph.point;
  s_live : Reg.Set.t;
}

type facts = {
  live : A.Ipliveness.t;
  clobbers : A.Clobbers.t Lazy.t;
  doms : A.Dom.t Lazy.t array;
  block_reach : A.Blockreach.t Lazy.t array;
  reaching : A.Reaching.t Lazy.t array;
  memos : memos;
}

and memos = { reach_memo : (int, Bytes.t) Hashtbl.t; max_blocks : int }

type index = {
  by_id : (int, site) Hashtbl.t;
  defsites : A.Fgraph.point list array array Lazy.t;
}

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  hazards : A.Alias.hazard list Lazy.t;
  facts : facts;
  index : index;
}

let facts (p : Cfg.program) =
  let live = A.Ipliveness.compute p in
  let graphs =
    Array.of_list
      (List.map
         (fun (f : Cfg.func) -> A.Ipliveness.graph live ~fname:f.Cfg.fname)
         p.Cfg.funcs)
  in
  let clobbers = lazy (A.Clobbers.compute p) in
  {
    live;
    clobbers;
    doms = Array.map (fun g -> lazy (A.Dom.compute g)) graphs;
    block_reach = Array.map (fun g -> lazy (A.Blockreach.compute g)) graphs;
    (* Call sites define the callee's clobber set, so no value is
       assumed preserved across a call that may overwrite it. *)
    reaching =
      Array.map
        (fun g ->
          lazy
            (A.Reaching.compute
               ~call_defs:(A.Clobbers.of_function (Lazy.force clobbers))
               g))
        graphs;
    memos =
      {
        reach_memo = Hashtbl.create 64;
        max_blocks =
          Array.fold_left (fun m g -> max m (A.Fgraph.n_blocks g)) 0 graphs;
      };
  }

let boundary_inserted facts ~func (pt : A.Fgraph.point) =
  if Lazy.is_val facts.reaching.(func) then
    A.Reaching.shift (Lazy.force facts.reaching.(func)) ~blk:pt.A.Fgraph.blk
      ~idx:pt.A.Fgraph.idx

let release facts = Hashtbl.reset facts.memos.reach_memo

(* Per function, per register: every definition point, with a call
   terminator standing for a definition of the callee's clobber set. *)
let defsites_of call_defs (g : A.Fgraph.t) =
  let ds = Array.make Reg.count [] in
  let add r pt = ds.(Reg.to_int r) <- pt :: ds.(Reg.to_int r) in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      List.iteri
        (fun idx i ->
          Reg.Set.iter
            (fun r -> add r { A.Fgraph.blk = bi; idx })
            (Instr.defs i))
        b.Cfg.instrs;
      match b.Cfg.term with
      | Instr.Call (callee, _) ->
          let pos = { A.Fgraph.blk = bi; idx = List.length b.Cfg.instrs } in
          Reg.Set.iter (fun r -> add r pos) (call_defs callee)
      | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
    g.A.Fgraph.blocks;
  ds

let compute ?facts:given ?hazards (p : Cfg.program) =
  let facts = match given with Some f -> f | None -> facts p in
  let funcs = Array.of_list p.Cfg.funcs in
  let graphs = Array.map A.Fgraph.of_func funcs in
  let sites = ref [] in
  Array.iteri
    (fun fi g ->
      let fname = funcs.(fi).Cfg.fname in
      Array.iteri
        (fun bi (b : Cfg.block) ->
          List.iteri
            (fun idx i ->
              match i with
              | Instr.Boundary id ->
                  let point = { A.Fgraph.blk = bi; idx } in
                  sites :=
                    {
                      s_id = id;
                      s_func = fi;
                      s_point = point;
                      s_live = A.Ipliveness.live_at facts.live ~fname point;
                    }
                    :: !sites
              | _ -> ())
            b.Cfg.instrs)
        g.A.Fgraph.blocks)
    graphs;
  let sites = List.rev !sites in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.s_id s) sites;
  (* Residual may-alias WAR hazards travel with the candidate set so
     downstream passes (pruning, verification) can refuse to optimize
     across a hazard region formation failed to cut.  Empty on any
     correctly formed program.  Always the sound syntactic verdicts,
     the set [Speculative] region formation cuts. *)
  let hazards =
    match hazards with
    | Some hs -> Lazy.from_val hs
    | None -> lazy (A.Alias.war_hazards p)
  in
  let defsites =
    lazy
      (let call_defs = A.Clobbers.of_function (Lazy.force facts.clobbers) in
       Array.map (defsites_of call_defs) graphs)
  in
  {
    prog = p;
    funcs;
    graphs;
    sites;
    hazards;
    facts;
    index = { by_id; defsites };
  }

let site_opt t id = Hashtbl.find_opt t.index.by_id id

let site t id =
  match site_opt t id with Some s -> s | None -> raise Not_found

let defsites t fi r = (Lazy.force t.index.defsites).(fi).(Reg.to_int r)

let reaches_avoiding t fi ~avoid ~from dst =
  let n = t.facts.memos.max_blocks in
  let key = (((fi * n) + avoid) * n) + from in
  let seen =
    match Hashtbl.find_opt t.facts.memos.reach_memo key with
    | Some seen -> seen
    | None ->
        let g = t.graphs.(fi) in
        let seen = Bytes.make (A.Fgraph.n_blocks g) '\000' in
        let rec go b =
          if Bytes.get seen b = '\000' then begin
            Bytes.set seen b '\001';
            if b <> avoid then List.iter go g.A.Fgraph.succ.(b)
          end
        in
        List.iter go g.A.Fgraph.succ.(from);
        Hashtbl.replace t.facts.memos.reach_memo key seen;
        seen
  in
  Bytes.get seen dst <> '\000'

let total_candidates t =
  List.fold_left (fun acc s -> acc + Reg.Set.cardinal s.s_live) 0 t.sites
