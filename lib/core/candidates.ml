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
  graphs : A.Fgraph.t array;
  clobbers : A.Clobbers.t Lazy.t;
  doms : A.Dom.t Lazy.t array;
  reaching : A.Reaching.t Lazy.t array;
  memos : memos;
}

(* [reach.(fi).(avoid * n + from)], [n] the function's block count: the
   blocks reached from [from] avoiding [avoid]; a function's row is
   [[||]] and an entry {!Bytes.empty} until first asked for. *)
and memos = { reach : Bytes.t array array }

type index = {
  by_id : (int, site) Hashtbl.t;
  defsites : A.Fgraph.point list array array Lazy.t;
}

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
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
    graphs;
    clobbers;
    doms = Array.map (fun g -> lazy (A.Dom.compute g)) graphs;
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
    memos = { reach = Array.make (Array.length graphs) [||] };
  }

let boundary_inserted facts ~func (pt : A.Fgraph.point) =
  if Lazy.is_val facts.reaching.(func) then
    A.Reaching.shift (Lazy.force facts.reaching.(func)) ~blk:pt.A.Fgraph.blk
      ~idx:pt.A.Fgraph.idx

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

let compute ?facts:given (p : Cfg.program) =
  let facts = match given with Some f -> f | None -> facts p in
  let funcs = Array.of_list p.Cfg.funcs in
  let graphs = facts.graphs in
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
  let defsites =
    lazy
      (let call_defs = A.Clobbers.of_function (Lazy.force facts.clobbers) in
       Array.map (defsites_of call_defs) graphs)
  in
  { prog = p; funcs; graphs; sites; facts; index = { by_id; defsites } }

let site t id = Hashtbl.find t.index.by_id id

let defsites t fi r = (Lazy.force t.index.defsites).(fi).(Reg.to_int r)

let reaches_avoiding t fi ~avoid ~from dst =
  let g = t.graphs.(fi) in
  let n = A.Fgraph.n_blocks g in
  let memo = t.facts.memos.reach in
  if Array.length memo.(fi) = 0 then memo.(fi) <- Array.make (n * n) Bytes.empty;
  let key = (avoid * n) + from in
  let seen = memo.(fi).(key) in
  let seen =
    if Bytes.length seen > 0 then seen
    else begin
      let seen = Bytes.make n '\000' in
      let rec go b =
        if Bytes.get seen b = '\000' then begin
          Bytes.set seen b '\001';
          if b <> avoid then List.iter go g.A.Fgraph.succ.(b)
        end
      in
      List.iter go g.A.Fgraph.succ.(from);
      memo.(fi).(key) <- seen;
      seen
    end
  in
  Bytes.get seen dst <> '\000'
