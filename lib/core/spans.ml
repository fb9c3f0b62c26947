open Gecko_isa
module A = Gecko_analysis

type t = {
  cands : Candidates.t;
  bodies : Instr.t array array array;
  base : int array;  (** flat index of each function's block 0 *)
  n_blocks : int;
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
  let base = Array.make nf 0 in
  let n_blocks = ref 0 in
  Array.iteri
    (fun fi body ->
      base.(fi) <- !n_blocks;
      n_blocks := !n_blocks + Array.length body)
    bodies;
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
  { cands; bodies; base; n_blocks = !n_blocks; func_index; ret_points }

let all_regs = Reg.Set.of_list Reg.all
let sp_only = Reg.Set.singleton Reg.sp

(* Forward walk from (fi, blk, idx) over every interprocedural path,
   carrying two register masks: a register is [clean] at a position when
   some path reaches it without defining the register since the start,
   and [dirty] when some path reaches it after such a definition (both
   may hold).  [visit] sees each instruction position with the state on
   arrival; a definition then moves its registers from [clean] to
   [dirty] ([Call] and [Ret] define [sp]), and [Boundary id] ends the
   walk of the registers in [stop id].

   Each register's two flags propagate independently, so a block that is
   entered again is rescanned with only the bits its entry state gains:
   per walk, a block is scanned at most once per (register, flag) pair,
   however many registers the walk carries.  [visit] therefore sees a
   position once per batch of new bits; across calls, the union of its
   [dirty] masks is the set of registers some path defines before
   reaching the position. *)
let walk w ~stop ~visit fi blk idx ~clean =
  let seen_clean = Array.make w.n_blocks Reg.Set.empty in
  let seen_dirty = Array.make w.n_blocks Reg.Set.empty in
  let rec scan fi blk idx clean dirty =
    let body = w.bodies.(fi).(blk) in
    let n = Array.length body in
    let clean = ref clean and dirty = ref dirty in
    let i = ref idx in
    while !i < n && not (Reg.Set.is_empty (Reg.Set.union !clean !dirty)) do
      let instr = body.(!i) in
      visit fi blk !i instr ~clean:!clean ~dirty:!dirty;
      (match instr with
      | Instr.Boundary id ->
          let s = stop id in
          clean := Reg.Set.diff !clean s;
          dirty := Reg.Set.diff !dirty s
      | _ ->
          let d = Instr.defs instr in
          dirty := Reg.Set.union !dirty (Reg.Set.inter !clean d);
          clean := Reg.Set.diff !clean d);
      incr i
    done;
    let clean = !clean and dirty = !dirty in
    if not (Reg.Set.is_empty (Reg.Set.union clean dirty)) then
      let g = w.cands.Candidates.graphs.(fi) in
      let sp_clean = Reg.Set.diff clean sp_only in
      let sp_dirty = Reg.Set.union dirty (Reg.Set.inter clean sp_only) in
      match g.A.Fgraph.blocks.(blk).Cfg.term with
      | Instr.Halt -> ()
      | Instr.Jmp _ | Instr.Br _ ->
          List.iter (fun s -> enter fi s clean dirty) g.A.Fgraph.succ.(blk)
      | Instr.Call (callee, _) -> (
          match Hashtbl.find_opt w.func_index callee with
          | Some cf -> enter cf 0 sp_clean sp_dirty
          | None -> ())
      | Instr.Ret ->
          let fname = w.cands.Candidates.funcs.(fi).Cfg.fname in
          List.iter
            (fun (caller, ret_blk) -> enter caller ret_blk sp_clean sp_dirty)
            (try Hashtbl.find w.ret_points fname with Not_found -> [])
  and enter fi blk clean dirty =
    let k = w.base.(fi) + blk in
    let clean = Reg.Set.diff clean seen_clean.(k) in
    let dirty = Reg.Set.diff dirty seen_dirty.(k) in
    if not (Reg.Set.is_empty (Reg.Set.union clean dirty)) then begin
      seen_clean.(k) <- Reg.Set.union seen_clean.(k) clean;
      seen_dirty.(k) <- Reg.Set.union seen_dirty.(k) dirty;
      scan fi blk 0 clean dirty
    end
  in
  scan fi blk idx clean Reg.Set.empty

let from_site w (s : Candidates.site) =
  walk w s.Candidates.s_func s.Candidates.s_point.A.Fgraph.blk
    (s.Candidates.s_point.A.Fgraph.idx + 1)

(* The crash window of [s]: a failure anywhere in it rolls back to [s],
   so anything executed here (in particular [Ckpt] slot stores of the
   next boundary) can have happened before the restore at [s] re-runs. *)
let iter_window w s regs ~f =
  from_site w s ~clean:regs
    ~stop:(fun _ -> all_regs)
    ~visit:(fun fi blk idx instr ~clean:_ ~dirty ->
      match instr with
      | Instr.Boundary _ -> ()
      | _ -> f fi blk idx instr ~redefined:dirty)

let edges w ~stores =
  let cands = w.cands in
  (* Per boundary: the registers it stores, and those whose span ends
     there (stored, or dead). *)
  let at = Hashtbl.create 64 in
  List.iter
    (fun (s : Candidates.site) ->
      let st = stores s.Candidates.s_id in
      Hashtbl.replace at s.Candidates.s_id
        (st, Reg.Set.union st (Reg.Set.diff all_regs s.Candidates.s_live)))
    cands.Candidates.sites;
  let stop id = snd (Hashtbl.find at id) in
  (* The edge lists come out in table order, which decides the order in
     which colouring meets (and repairs) conflicts.  A register's table
     is made on its first edge, at the one size that order rests on. *)
  let tables = Array.make Reg.count None in
  let table ri =
    match tables.(ri) with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 64 in
        tables.(ri) <- Some tbl;
        tbl
  in
  List.iter
    (fun (s : Candidates.site) ->
      let src = fst (Hashtbl.find at s.Candidates.s_id) in
      if not (Reg.Set.is_empty src) then
        from_site w s ~clean:src ~stop
          ~visit:(fun _ _ _ instr ~clean ~dirty ->
            match instr with
            | Instr.Boundary id ->
                Reg.Set.iter
                  (fun r ->
                    let tbl = table (Reg.to_int r) in
                    let key = (s.Candidates.s_id, id) in
                    let redefined =
                      Reg.Set.mem r dirty
                      || Option.value ~default:false (Hashtbl.find_opt tbl key)
                    in
                    Hashtbl.replace tbl key redefined)
                  (Reg.Set.inter
                     (fst (Hashtbl.find at id))
                     (Reg.Set.union clean dirty))
            | _ -> ()))
    cands.Candidates.sites;
  Array.map
    (function
      | None -> []
      | Some tbl -> Hashtbl.fold (fun (a, b) redef l -> (a, b, redef) :: l) tbl [])
    tables
