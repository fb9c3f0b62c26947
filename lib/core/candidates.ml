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
  defsites : A.Fgraph.point list array Lazy.t array;
  memos : memos;
}

(* [reach.(fi).(avoid * n + from)], [n] the function's block count: the
   blocks reached from [from] avoiding [avoid]; a function's row is
   [[||]] and an entry {!Bytes.empty} until first asked for.
   [block_sites.(fi).(blk)]: the sites of a block, keyed on the
   instruction list they were read from (physical equality). *)
and memos = {
  reach : Bytes.t array array;
  block_sites : (Instr.t list * site list) array array;
}

type index = (int, site) Hashtbl.t Lazy.t

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  facts : facts;
  index : index;
}

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

let facts (p : Cfg.program) =
  let live = A.Ipliveness.compute p in
  let graphs =
    Array.of_list
      (List.map
         (fun (f : Cfg.func) -> A.Ipliveness.graph live ~fname:f.Cfg.fname)
         p.Cfg.funcs)
  in
  let clobbers = lazy (A.Clobbers.compute p) in
  (* Call sites define the callee's clobber set, so no value is assumed
     preserved across a call that may overwrite it. *)
  let call_defs callee = A.Clobbers.of_function (Lazy.force clobbers) callee in
  {
    live;
    graphs;
    clobbers;
    doms = Array.map (fun g -> lazy (A.Dom.compute g)) graphs;
    reaching =
      Array.map (fun g -> lazy (A.Reaching.compute ~call_defs g)) graphs;
    defsites = Array.map (fun g -> lazy (defsites_of call_defs g)) graphs;
    memos =
      {
        reach = Array.make (Array.length graphs) [||];
        block_sites =
          Array.map (fun g -> Array.make (A.Fgraph.n_blocks g) ([], [])) graphs;
      };
  }

let boundary_inserted facts ~func (pt : A.Fgraph.point) =
  let { A.Fgraph.blk; idx } = pt in
  if Lazy.is_val facts.reaching.(func) then
    A.Reaching.shift (Lazy.force facts.reaching.(func)) ~blk ~idx;
  (* A boundary defines nothing: every definition point at or after it
     moves one index on, the call-clobber one at the terminator too. *)
  if Lazy.is_val facts.defsites.(func) then begin
    let ds = Lazy.force facts.defsites.(func) in
    Array.iteri
      (fun r pts ->
        ds.(r) <-
          List.map
            (fun (q : A.Fgraph.point) ->
              if q.A.Fgraph.blk = blk && q.A.Fgraph.idx >= idx then
                { q with A.Fgraph.idx = q.A.Fgraph.idx + 1 }
              else q)
            pts)
      ds
  end

(* The sites of block [bi] of function [fi], read again only when its
   instruction list is a new one: a repair replaces one block's list,
   and undoing an emission puts the old lists back. *)
let block_sites facts live_at fi bi (b : Cfg.block) =
  let key, sites = facts.memos.block_sites.(fi).(bi) in
  if key == b.Cfg.instrs then sites
  else begin
    let sites = ref [] in
    List.iteri
      (fun idx i ->
        match i with
        | Instr.Boundary id ->
            let point = { A.Fgraph.blk = bi; idx } in
            sites :=
              { s_id = id; s_func = fi; s_point = point; s_live = live_at point }
              :: !sites
        | _ -> ())
      b.Cfg.instrs;
    let sites = List.rev !sites in
    facts.memos.block_sites.(fi).(bi) <- (b.Cfg.instrs, sites);
    sites
  end

let compute ?facts:given (p : Cfg.program) =
  let facts = match given with Some f -> f | None -> facts p in
  let funcs = Array.of_list p.Cfg.funcs in
  let graphs = facts.graphs in
  let sites = ref [] in
  for fi = Array.length graphs - 1 downto 0 do
    let live_at = A.Ipliveness.live_at facts.live ~fname:funcs.(fi).Cfg.fname in
    let blocks = graphs.(fi).A.Fgraph.blocks in
    for bi = Array.length blocks - 1 downto 0 do
      sites := block_sites facts live_at fi bi blocks.(bi) @ !sites
    done
  done;
  let sites = !sites in
  let index =
    lazy
      (let index = Hashtbl.create 64 in
       List.iter (fun s -> Hashtbl.replace index s.s_id s) sites;
       index)
  in
  { prog = p; funcs; graphs; sites; facts; index }

let site t id = Hashtbl.find (Lazy.force t.index) id

let defsites t fi r = (Lazy.force t.facts.defsites.(fi)).(Reg.to_int r)

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
