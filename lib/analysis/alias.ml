open Gecko_isa

let may_alias (a : Instr.mref) (b : Instr.mref) =
  a.Instr.space.Instr.space_id = b.Instr.space.Instr.space_id
  &&
  match (a.Instr.disp, b.Instr.disp) with
  | Instr.Dconst x, Instr.Dconst y -> x = y
  | Instr.Dreg _, _ | _, Instr.Dreg _ -> true

let is_dynamic (m : Instr.mref) =
  match m.Instr.disp with Instr.Dreg _ -> true | Instr.Dconst _ -> false

let space_written p (s : Instr.space) =
  let found = ref false in
  Cfg.iter_instrs p (fun i ->
      match Instr.mem_write i with
      | Some m when m.Instr.space.Instr.space_id = s.Instr.space_id ->
          found := true
      | Some _ | None -> ());
  !found

let location_read_only p (m : Instr.mref) =
  let clobbered = ref false in
  Cfg.iter_instrs p (fun i ->
      match Instr.mem_write i with
      | Some w when may_alias w m -> clobbered := true
      | Some _ | None -> ());
  not !clobbered

(* --- last write before a point ------------------------------------- *)

type write_before =
  | Write of int
  | Clobbered of int
  | No_write

(* Provably-same-location test within one straight-line body: same space
   and either equal constant displacements, or the same index register
   with no redefinition between the two positions. *)
let must_alias_in_block (body : Instr.t array) j idx (w : Instr.mref)
    (m : Instr.mref) =
  w.Instr.space.Instr.space_id = m.Instr.space.Instr.space_id
  &&
  match (w.Instr.disp, m.Instr.disp) with
  | Instr.Dconst a, Instr.Dconst b -> a = b
  | Instr.Dreg a, Instr.Dreg b ->
      Reg.equal a b
      && (let unchanged = ref true in
          for k = j + 1 to idx - 1 do
            if Reg.Set.mem a (Instr.defs body.(k)) then unchanged := false
          done;
          !unchanged)
  | Instr.Dconst _, Instr.Dreg _ | Instr.Dreg _, Instr.Dconst _ -> false

let last_write_before (body : Instr.t array) idx (m : Instr.mref) =
  let result = ref No_write in
  (try
     for j = idx - 1 downto 0 do
       match body.(j) with
       | Instr.Boundary _ -> raise Exit
       | i -> (
           match Instr.mem_write i with
           | Some w when must_alias_in_block body j idx w m ->
               result := Write j;
               raise Exit
           | Some w when may_alias w m ->
               (* A may-aliasing (dynamically addressed) store intervenes:
                  nothing earlier can be trusted to describe the
                  location's content. *)
               result := Clobbered j;
               raise Exit
           | Some _ | None -> ())
     done
   with Exit -> ());
  !result

(* --- may-alias WAR hazard set --------------------------------------- *)

type hazard = {
  hz_func : string;
  hz_load : int * int;
  hz_store_func : string;
  hz_store : int * int;
  hz_ref : Instr.mref;
  hz_dynamic : bool;
}

(* Program-wide forward-walk context: block bodies per function, plus the
   call graph links needed to continue a walk through calls and returns.
   A body is a snapshot: a caller that inserts into a block re-reads it
   with [refresh_block]. *)
type walker = {
  wfuncs : Cfg.func array;
  wgraphs : Fgraph.t array;
  wbodies : Instr.t array array array;
  wfunc_index : (string, int) Hashtbl.t;
  wret_points : (string, (int * int) list) Hashtbl.t;
}

let walker (p : Cfg.program) =
  let wfuncs = Array.of_list p.Cfg.funcs in
  let wgraphs = Array.map Fgraph.of_func wfuncs in
  let wbodies =
    Array.map
      (fun (g : Fgraph.t) ->
        Array.map
          (fun (b : Cfg.block) -> Array.of_list b.Cfg.instrs)
          g.Fgraph.blocks)
      wgraphs
  in
  let wfunc_index = Hashtbl.create 8 in
  Array.iteri
    (fun i (f : Cfg.func) -> Hashtbl.replace wfunc_index f.Cfg.fname i)
    wfuncs;
  let wret_points = Hashtbl.create 8 in
  Array.iteri
    (fun fi (g : Fgraph.t) ->
      Array.iter
        (fun (b : Cfg.block) ->
          match b.Cfg.term with
          | Instr.Call (callee, ret) ->
              let ret_blk = Fgraph.block_id g ret in
              let old =
                try Hashtbl.find wret_points callee with Not_found -> []
              in
              Hashtbl.replace wret_points callee ((fi, ret_blk) :: old)
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
        g.Fgraph.blocks)
    wgraphs;
  { wfuncs; wgraphs; wbodies; wfunc_index; wret_points }

(* Every store that may alias [m], reachable from (fi, blk, idx) without
   crossing a boundary.  Each path stops at its first such store (a cut
   inserted before it re-protects everything behind it) or at a
   boundary.  The walk follows calls into the callee entry and returns
   into every caller's return block (context-insensitive, hence
   conservative). *)
let war_stores w (m : Instr.mref) fi blk idx ~f =
  let visited = Hashtbl.create 16 in
  let rec scan fi blk idx =
    let body = w.wbodies.(fi).(blk) in
    let n = Array.length body in
    let stop = ref false in
    let i = ref idx in
    while (not !stop) && !i < n do
      (match body.(!i) with
      | Instr.Boundary _ -> stop := true
      | instr -> (
          match Instr.mem_write instr with
          | Some sw when may_alias sw m ->
              f fi blk !i sw;
              stop := true
          | Some _ | None -> ()));
      incr i
    done;
    if not !stop then
      let g = w.wgraphs.(fi) in
      match g.Fgraph.blocks.(blk).Cfg.term with
      | Instr.Halt -> ()
      | Instr.Jmp _ | Instr.Br _ ->
          List.iter (fun s -> enter fi s) g.Fgraph.succ.(blk)
      | Instr.Call (callee, _) -> (
          match Hashtbl.find_opt w.wfunc_index callee with
          | Some cf -> enter cf 0
          | None -> ())
      | Instr.Ret ->
          let fname = w.wfuncs.(fi).Cfg.fname in
          List.iter
            (fun (caller, ret_blk) -> enter caller ret_blk)
            (try Hashtbl.find w.wret_points fname with Not_found -> [])
  and enter fi blk =
    if not (Hashtbl.mem visited (fi, blk)) then begin
      Hashtbl.replace visited (fi, blk) ();
      scan fi blk 0
    end
  in
  scan fi blk idx

let refresh_block w ~func ~blk =
  w.wbodies.(func).(blk) <-
    Array.of_list w.wgraphs.(func).Fgraph.blocks.(blk).Cfg.instrs

(* Every hazard of every load at or after [from] = (function, block,
   index), in program order; [walked] counts the loads whose forward
   walk ran (those without a WARAW exemption). *)
let iter_hazards w ~walked (ffi, fbi, fidx) ~f =
  for fi = ffi to Array.length w.wbodies - 1 do
    let fname = w.wfuncs.(fi).Cfg.fname in
    let bodies = w.wbodies.(fi) in
    for bi = (if fi = ffi then fbi else 0) to Array.length bodies - 1 do
      let body = bodies.(bi) in
      for idx = (if fi = ffi && bi = fbi then fidx else 0) to Array.length body - 1 do
        match Instr.mem_read body.(idx) with
        | Some m -> (
            match last_write_before body idx m with
            | Write _ -> () (* WARAW-exempt: re-execution rewrites first *)
            | Clobbered _ | No_write ->
                incr walked;
                war_stores w m fi bi (idx + 1) ~f:(fun sfi sblk sidx sw ->
                    f
                      {
                        hz_func = fname;
                        hz_load = (bi, idx);
                        hz_store_func = w.wfuncs.(sfi).Cfg.fname;
                        hz_store = (sblk, sidx);
                        hz_ref = m;
                        hz_dynamic = is_dynamic m || is_dynamic sw;
                      }))
        | None -> ()
      done
    done
  done

let war_hazards (p : Cfg.program) =
  let out = ref [] in
  iter_hazards (walker p) ~walked:(ref 0) (0, 0, 0) ~f:(fun h -> out := h :: !out);
  List.rev !out

exception Found of hazard

let first_hazard ?(walked = ref 0) w ~from =
  match iter_hazards w ~walked from ~f:(fun h -> raise (Found h)) with
  | () -> None
  | exception Found h -> Some h

let pp_hazard fmt h =
  let lb, li = h.hz_load in
  let sb, si = h.hz_store in
  Format.fprintf fmt
    "%s: load %a at block %d+%d anti-depends on store at %s block %d+%d \
     with no boundary between%s"
    h.hz_func Instr.pp_mref h.hz_ref lb li h.hz_store_func sb si
    (if h.hz_dynamic then " (dynamically addressed)" else "")

(* --- WARAW-protected intervals -------------------------------------- *)

(* Positions where inserting a boundary would separate a WARAW-exempt
   store from its protected load: (block, lo, hi) means any insertion at
   index k with lo <= k <= hi breaks the exemption (region formation
   then has to cut again before the follow-up store).  Splitting avoids
   these points when it can. *)
let waraw_protected_intervals (f : Cfg.func) =
  List.concat
    (List.mapi
       (fun bi (b : Cfg.block) ->
         let body = Array.of_list b.Cfg.instrs in
         let acc = ref [] in
         Array.iteri
           (fun idx instr ->
             match Instr.mem_read instr with
             | Some m -> (
                 match last_write_before body idx m with
                 | Write j -> acc := (bi, j + 1, idx) :: !acc
                 | Clobbered _ | No_write -> ())
             | None -> ())
           body;
         !acc)
       f.Cfg.blocks)
