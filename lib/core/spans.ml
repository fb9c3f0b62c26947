open Gecko_isa
module A = Gecko_analysis

type t = {
  cands : Candidates.t;
  bodies : Instr.t array array array;
  func_index : (string, int) Hashtbl.t;
  ret_points : (string, (int * int) list) Hashtbl.t;
}

let make (cands : Candidates.t) =
  let nf = Array.length cands.Candidates.funcs in
  let bodies =
    Array.map
      (fun (g : A.Fgraph.t) ->
        Array.map
          (fun (b : Cfg.block) -> Array.of_list b.Cfg.instrs)
          g.A.Fgraph.blocks)
      cands.Candidates.graphs
  in
  let func_index = Hashtbl.create nf in
  Array.iteri
    (fun i (f : Cfg.func) -> Hashtbl.replace func_index f.Cfg.fname i)
    cands.Candidates.funcs;
  let ret_points = Hashtbl.create 8 in
  Array.iteri
    (fun fi (g : A.Fgraph.t) ->
      Array.iter
        (fun (b : Cfg.block) ->
          match b.Cfg.term with
          | Instr.Call (callee, ret) ->
              let ret_blk = A.Fgraph.block_id g ret in
              let old =
                try Hashtbl.find ret_points callee with Not_found -> []
              in
              Hashtbl.replace ret_points callee ((fi, ret_blk) :: old)
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
        g.A.Fgraph.blocks)
    cands.Candidates.graphs;
  { cands; bodies; func_index; ret_points }

(* From (fi, blk, idx), scan every interprocedural path forward, once
   per block: [visit fi blk idx instr] sees each instruction position, and
   a [true] return stops that path there. *)
let walk w ~visit fi blk idx =
  let visited = Hashtbl.create 16 in
  let rec scan fi blk idx =
    let body = w.bodies.(fi).(blk) in
    let n = Array.length body in
    let stop = ref false in
    let i = ref idx in
    while (not !stop) && !i < n do
      if visit fi blk !i body.(!i) then stop := true;
      incr i
    done;
    if not !stop then
      let g = w.cands.Candidates.graphs.(fi) in
      match g.A.Fgraph.blocks.(blk).Cfg.term with
      | Instr.Halt -> ()
      | Instr.Jmp _ | Instr.Br _ ->
          List.iter (fun s -> enter fi s) g.A.Fgraph.succ.(blk)
      | Instr.Call (callee, _) -> (
          match Hashtbl.find_opt w.func_index callee with
          | Some cf -> enter cf 0
          | None -> ())
      | Instr.Ret ->
          let fname = w.cands.Candidates.funcs.(fi).Cfg.fname in
          List.iter
            (fun (caller, ret_blk) -> enter caller ret_blk)
            (try Hashtbl.find w.ret_points fname with Not_found -> [])
  and enter fi blk =
    if not (Hashtbl.mem visited (fi, blk)) then begin
      Hashtbl.replace visited (fi, blk) ();
      scan fi blk 0
    end
  in
  scan fi blk idx

let from_site w (s : Candidates.site) ~visit =
  walk w ~visit s.Candidates.s_func s.Candidates.s_point.A.Fgraph.blk
    (s.Candidates.s_point.A.Fgraph.idx + 1)

(* Visit every instruction position reachable from just after [s] before
   crossing any boundary — the site's crash window: a failure anywhere in
   it rolls back to [s], so anything executed here (in particular [Ckpt]
   slot stores of the next boundary) can have happened before the restore
   at [s] re-runs. *)
let iter_window w s ~f =
  from_site w s ~visit:(fun fi blk idx instr ->
      match instr with
      | Instr.Boundary _ -> true
      | _ ->
          f fi blk idx instr;
          false)

let edges w ~stops =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s : Candidates.site) ->
      if stops s.Candidates.s_id then
        from_site w s ~visit:(fun _ _ _ instr ->
            match instr with
            | Instr.Boundary id when stops id ->
                Hashtbl.replace acc (s.Candidates.s_id, id) ();
                true
            | _ -> false))
    w.cands.Candidates.sites;
  Hashtbl.fold (fun e () l -> e :: l) acc []
