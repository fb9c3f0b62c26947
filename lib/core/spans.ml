open Gecko_isa
module A = Gecko_analysis

(* One source's recorded span walk: its edges in first-insert order,
   each [(target lsl 5) lor (register lsl 1) lor redefined] with its
   final flag, and the boundary ids it visited, each once.  Boundary
   ids stay below 2^27. *)
type walk = { w_edges : int list; w_visited : int list }

(* A block body as {!edges} walks it: segment [k] is the registers the
   instructions before the [k]-th [Boundary] (and after the one before)
   define, then that boundary's id; the last segment is the tail before
   the terminator, with id -1.  A run of definitions acts on the two
   masks of a walk as one definition of their union, and a span walk
   looks at nothing else but boundaries. *)
type segments = { defs : Reg.Set.t array; ids : int array }

type t = {
  graphs : A.Fgraph.t array;
  funcs : Cfg.func array;
  bodies : Instr.t array array array;
  segs : segments option array array;  (** made at a block's first span walk *)
  base : int array;  (** flat index of each function's block 0 *)
  n_blocks : int;
  func_index : (string, int) Hashtbl.t;
  ret_points : (string, (int * int) list) Hashtbl.t;
  (* The walk memo, as of the last {!edges} call, by boundary id: each
     source's walk and every site's stores; per register, the insert
     sequence (reversed, each [(source lsl 32) lor edge] with [edge] as
     in [w_edges]) and the edge list made from it. *)
  mutable walks : walk option array;
  mutable stores_then : Reg.Set.t option array;
  last_seqs : int list array;
  last_lists : (int * int * bool) list array;
  mutable repaired : int list;  (** repaired since the last call *)
  (* Scratch marks of {!edges}' walks, by boundary id and by (boundary
     id, register): the number of the walk that set them. *)
  mutable visit_mark : int array;
  mutable edge_mark : int array;
  mutable edge_flag : Bytes.t;
  mutable walked : int;
  mutable reused : int;
}

let segments body =
  let n =
    Array.fold_left (fun n -> function Instr.Boundary _ -> n + 1 | _ -> n) 1 body
  in
  let defs = Array.make n Reg.Set.empty and ids = Array.make n (-1) in
  let k = ref 0 in
  Array.iter
    (function
      | Instr.Boundary id ->
          ids.(!k) <- id;
          incr k
      | i -> defs.(!k) <- Reg.Set.union defs.(!k) (Instr.defs i))
    body;
  { defs; ids }

let make (facts : Candidates.facts) (p : Cfg.program) =
  let graphs = facts.Candidates.graphs and funcs = Array.of_list p.Cfg.funcs in
  let nf = Array.length funcs in
  let bodies =
    Array.map
      (fun (g : A.Fgraph.t) ->
        Array.map
          (fun (b : Cfg.block) -> Array.of_list b.Cfg.instrs)
          g.A.Fgraph.blocks)
      graphs
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
    funcs;
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
    graphs;
  {
    graphs;
    funcs;
    bodies;
    segs = Array.map (Array.map (fun _ -> None)) bodies;
    base;
    n_blocks = !n_blocks;
    func_index;
    ret_points;
    walks = [||];
    stores_then = [||];
    last_seqs = Array.make Reg.count [];
    last_lists = Array.make Reg.count [];
    repaired = [];
    visit_mark = [||];
    edge_mark = [||];
    edge_flag = Bytes.empty;
    walked = 0;
    reused = 0;
  }

let boundary_inserted w ~func ~blk ~after =
  let body = Array.of_list w.graphs.(func).A.Fgraph.blocks.(blk).Cfg.instrs in
  w.bodies.(func).(blk) <- body;
  w.segs.(func).(blk) <- None;
  w.repaired <- after :: w.repaired

let walk_counts w = (w.walked, w.reused)

let all_regs = Reg.Set.of_list Reg.all
let sp_only = Reg.Set.singleton Reg.sp

(* Forward walk from a position of block [blk] of [fi] over every
   interprocedural path, carrying two register masks: a register is
   [clean] at a position when some path reaches it without defining the
   register since the start, and [dirty] when some path reaches it
   after such a definition (both may hold).  [scan fi blk start clean
   dirty] runs a block from [start] (0 on entry) and returns the masks
   it leaves the block with; a definition moves its registers from
   [clean] to [dirty] ([Call] and [Ret] define [sp]), and a boundary
   ends the walk of the registers it stops.

   Each register's two flags propagate independently, so a block that is
   entered again is rescanned with only the bits its entry state gains:
   per walk, a block is scanned at most once per (register, flag) pair,
   however many registers the walk carries.  A position is therefore
   seen once per batch of new bits; across visits, the union of its
   [dirty] masks is the set of registers some path defines before
   reaching the position. *)
let traverse w ~scan fi blk start ~clean =
  let seen_clean = Array.make w.n_blocks Reg.Set.empty in
  let seen_dirty = Array.make w.n_blocks Reg.Set.empty in
  let rec go fi blk start clean dirty =
    let clean, dirty = scan fi blk start clean dirty in
    if not (Reg.Set.is_empty (Reg.Set.union clean dirty)) then
      let g = w.graphs.(fi) in
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
          let fname = w.funcs.(fi).Cfg.fname in
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
      go fi blk 0 clean dirty
    end
  in
  go fi blk start clean Reg.Set.empty

(* The crash window of [s]: a failure anywhere in it rolls back to [s],
   so anything executed here (in particular [Ckpt] slot stores of the
   next boundary) can have happened before the restore at [s] re-runs.
   Every instruction is visited, with the state on arrival; every
   boundary ends the window. *)
let iter_window w (s : Candidates.site) regs ~f =
  let { A.Fgraph.blk; idx } = s.Candidates.s_point in
  traverse w s.Candidates.s_func blk (idx + 1) ~clean:regs
    ~scan:(fun fi blk idx clean dirty ->
      let body = w.bodies.(fi).(blk) in
      let n = Array.length body in
      let clean = ref clean and dirty = ref dirty in
      let i = ref idx in
      while !i < n && not (Reg.Set.is_empty (Reg.Set.union !clean !dirty)) do
        (match body.(!i) with
        | Instr.Boundary _ ->
            clean := Reg.Set.empty;
            dirty := Reg.Set.empty
        | instr ->
            f fi blk !i instr ~redefined:!dirty;
            let d = Instr.defs instr in
            dirty := Reg.Set.union !dirty (Reg.Set.inter !clean d);
            clean := Reg.Set.diff !clean d);
        incr i
      done;
      (!clean, !dirty))

(* The span walk from [s]: only boundaries are visited, with the state
   on arrival, and [Boundary id] ends the walk of the registers in
   [stop id]. *)
let span_walk w (s : Candidates.site) ~stop ~visit ~clean =
  let { A.Fgraph.blk; idx } = s.Candidates.s_point in
  let fi = s.Candidates.s_func in
  (* The segment after the one [s] ends. *)
  let body = w.bodies.(fi).(blk) in
  let start = ref 1 in
  for i = 0 to idx - 1 do
    match body.(i) with Instr.Boundary _ -> incr start | _ -> ()
  done;
  traverse w fi blk !start ~clean ~scan:(fun fi blk k clean dirty ->
      let { defs; ids } =
        match w.segs.(fi).(blk) with
        | Some sg -> sg
        | None ->
            let sg = segments w.bodies.(fi).(blk) in
            w.segs.(fi).(blk) <- Some sg;
            sg
      in
      let n = Array.length ids in
      let clean = ref clean and dirty = ref dirty in
      let k = ref k in
      while !k < n && not (Reg.Set.is_empty (Reg.Set.union !clean !dirty)) do
        let d = defs.(!k) in
        dirty := Reg.Set.union !dirty (Reg.Set.inter !clean d);
        clean := Reg.Set.diff !clean d;
        let id = ids.(!k) in
        if id >= 0 then begin
          visit id ~clean:!clean ~dirty:!dirty;
          let s = stop id in
          clean := Reg.Set.diff !clean s;
          dirty := Reg.Set.diff !dirty s
        end;
        incr k
      done;
      (!clean, !dirty))

let edges w ~sites ~stores =
  let n_ids =
    1 + List.fold_left (fun m (s : Candidates.site) -> max m s.Candidates.s_id) (-1) sites
  in
  (* Per boundary id: the registers it stores, and those whose span ends
     there (stored, or dead). *)
  let st = Array.make n_ids Reg.Set.empty in
  let stop_at = Array.make n_ids all_regs in
  let stores_now = Array.make n_ids None in
  List.iter
    (fun (s : Candidates.site) ->
      let id = s.Candidates.s_id in
      let x = stores id in
      st.(id) <- x;
      stop_at.(id) <- Reg.Set.union x (Reg.Set.diff all_regs s.Candidates.s_live);
      stores_now.(id) <- Some x)
    sites;
  let stop id = stop_at.(id) in
  (* A recorded walk still holds when its source's stores are the same,
     its source is not a repaired node, and no boundary it visited
     changed its stores or is a repaired node: a repair goes in right
     after its node, so only walks through that node reach it. *)
  let moved =
    Array.init n_ids (fun id ->
        id >= Array.length w.stores_then
        || not (Option.equal Reg.Set.equal w.stores_then.(id) stores_now.(id)))
  in
  List.iter (fun id -> if id < n_ids then moved.(id) <- true) w.repaired;
  let kept src =
    if src >= Array.length w.walks || moved.(src) then None
    else
      match w.walks.(src) with
      | Some k when not (List.exists (fun v -> moved.(v)) k.w_visited) -> Some k
      | Some _ | None -> None
  in
  if Array.length w.visit_mark < n_ids then begin
    w.visit_mark <- Array.make (2 * n_ids) (-1);
    w.edge_mark <- Array.make (2 * n_ids * Reg.count) (-1);
    w.edge_flag <- Bytes.make (2 * n_ids * Reg.count) '\000'
  end;
  let fresh (s : Candidates.site) x =
    let no = w.walked in
    w.walked <- no + 1;
    let visited = ref [] and inserts = ref [] in
    span_walk w s ~clean:x ~stop ~visit:(fun id ~clean ~dirty ->
        if w.visit_mark.(id) <> no then begin
          w.visit_mark.(id) <- no;
          visited := id :: !visited
        end;
        Reg.Set.iter
          (fun r ->
            let e = (id * Reg.count) + Reg.to_int r in
            if w.edge_mark.(e) <> no then begin
              w.edge_mark.(e) <- no;
              Bytes.set w.edge_flag e '\000';
              inserts := e :: !inserts
            end;
            if Reg.Set.mem r dirty then Bytes.set w.edge_flag e '\001')
          (Reg.Set.inter st.(id) (Reg.Set.union clean dirty)));
    let edge e =
      ((e / Reg.count) lsl 5)
      lor ((e mod Reg.count) lsl 1)
      lor Char.code (Bytes.get w.edge_flag e)
    in
    { w_edges = List.rev_map edge !inserts; w_visited = !visited }
  in
  let walks = Array.make n_ids None in
  let seqs = Array.make Reg.count [] in
  List.iter
    (fun (s : Candidates.site) ->
      let src = s.Candidates.s_id in
      let x = st.(src) in
      if not (Reg.Set.is_empty x) then begin
        let k =
          match kept src with
          | Some k ->
              w.reused <- w.reused + 1;
              k
          | None -> fresh s x
        in
        walks.(src) <- Some k;
        List.iter
          (fun e ->
            let ri = (e lsr 1) land (Reg.count - 1) in
            seqs.(ri) <- ((src lsl 32) lor e) :: seqs.(ri))
          k.w_edges
      end)
    sites;
  w.walks <- walks;
  w.stores_then <- stores_now;
  w.repaired <- [];
  (* The edge lists come out in table order, which decides the order in
     which colouring meets (and repairs) conflicts.  Each register's
     table replays its inserts in site order, at the one size and the
     one (unrandomised) hash that order rests on; a register whose
     inserts did not change keeps its list. *)
  Array.iteri
    (fun ri seq ->
      if not (List.equal Int.equal seq w.last_seqs.(ri)) then begin
        w.last_seqs.(ri) <- seq;
        w.last_lists.(ri) <-
          (match seq with
          | [] -> []
          | _ ->
              let tbl = Hashtbl.create ~random:false 64 in
              List.iter
                (fun x ->
                  Hashtbl.replace tbl (x lsr 32, (x lsr 5) land 0x7ffffff) (x land 1 = 1))
                (List.rev seq);
              Hashtbl.fold (fun (a, b) redef l -> (a, b, redef) :: l) tbl [])
      end)
    seqs;
  Array.copy w.last_lists
