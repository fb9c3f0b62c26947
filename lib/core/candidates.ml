open Gecko_isa
module A = Gecko_analysis

type site = {
  s_id : int;
  s_func : int;
  s_point : A.Fgraph.point;
  s_live : Reg.Set.t;
}

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  hazards : A.Alias.hazard list;
}

let compute (p : Cfg.program) =
  let funcs = Array.of_list p.Cfg.funcs in
  let graphs = Array.map A.Fgraph.of_func funcs in
  let live = A.Ipliveness.compute p in
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
                      s_live = A.Ipliveness.live_at live ~fname point;
                    }
                    :: !sites
              | _ -> ())
            b.Cfg.instrs)
        g.A.Fgraph.blocks)
    graphs;
  (* Residual may-alias WAR hazards travel with the candidate set so
     downstream passes (pruning, verification) can refuse to optimize
     across a hazard region formation failed to cut.  Empty on any
     correctly formed program.  Always the sound syntactic verdicts:
     every sound mode cuts this same set. *)
  let hazards = A.Alias.war_hazards p in
  { prog = p; funcs; graphs; sites = List.rev !sites; hazards }

let site t id =
  match List.find_opt (fun s -> s.s_id = id) t.sites with
  | Some s -> s
  | None -> raise Not_found

let total_candidates t =
  List.fold_left (fun acc s -> acc + Reg.Set.cardinal s.s_live) 0 t.sites
