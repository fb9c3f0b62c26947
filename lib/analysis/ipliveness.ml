open Gecko_isa

(* Per function, indexed by block: each block's instructions folded into
   one summary ([gen], the registers they read before any of them
   writes; [kill], the registers they write), the block-level fixpoint,
   and a live-before table per block, built on first query from the
   instruction list it is keyed on.  A pass that inserts into a block
   (colouring's repair boundaries) replaces the list, so the next query
   rebuilds that block's table; a [Boundary] uses and defines nothing,
   so the summaries and the fixpoint stay exact. *)
type finfo = {
  g : Fgraph.t;
  gen : Reg.Set.t array;
  kill : Reg.Set.t array;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  keys : Instr.t list array;
  before : Reg.Set.t array array;  (* [[||]] until built *)
}

type t = {
  infos : (string, finfo) Hashtbl.t;
  entry_live : (string, Reg.Set.t) Hashtbl.t;
  ret_uses : (string, Reg.Set.t) Hashtbl.t;
}

let lookup tbl key =
  try Hashtbl.find tbl key with Not_found -> Reg.Set.empty

let term_uses t ~fname term =
  match term with
  | Instr.Call (callee, _) ->
      (* The stack pointer is implicitly read by the push. *)
      Reg.Set.add Reg.sp (lookup t.entry_live callee)
  | Instr.Ret -> Reg.Set.add Reg.sp (lookup t.ret_uses fname)
  | Instr.Jmp _ | Instr.Br _ | Instr.Halt -> Instr.term_uses term

(* One round of per-function dataflow; returns whether anything changed. *)
let flow_function t fname (fi : finfo) =
  let n = Fgraph.n_blocks fi.g in
  let changed = ref false in
  let pass () =
    let inner = ref true in
    while !inner do
      inner := false;
      for b = n - 1 downto 0 do
        let out =
          List.fold_left
            (fun acc s -> Reg.Set.union acc fi.live_in.(s))
            Reg.Set.empty fi.g.Fgraph.succ.(b)
        in
        let after_term =
          Reg.Set.union out (term_uses t ~fname fi.g.Fgraph.blocks.(b).Cfg.term)
        in
        let inn = Reg.Set.union fi.gen.(b) (Reg.Set.diff after_term fi.kill.(b)) in
        if not (Reg.Set.equal out fi.live_out.(b)) then begin
          fi.live_out.(b) <- out;
          inner := true;
          changed := true
        end;
        if not (Reg.Set.equal inn fi.live_in.(b)) then begin
          fi.live_in.(b) <- inn;
          inner := true;
          changed := true
        end
      done
    done
  in
  pass ();
  !changed

let compute (p : Cfg.program) =
  let t =
    {
      infos = Hashtbl.create 8;
      entry_live = Hashtbl.create 8;
      ret_uses = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (f : Cfg.func) ->
      let g = Fgraph.of_func f in
      let n = Fgraph.n_blocks g in
      let summary (b : Cfg.block) =
        List.fold_right
          (fun i (gen, kill) ->
            let d = Instr.defs i in
            (Reg.Set.union (Instr.uses i) (Reg.Set.diff gen d), Reg.Set.union d kill))
          b.Cfg.instrs (Reg.Set.empty, Reg.Set.empty)
      in
      let sums = Array.map summary g.Fgraph.blocks in
      Hashtbl.replace t.infos f.Cfg.fname
        {
          g;
          gen = Array.map fst sums;
          kill = Array.map snd sums;
          live_in = Array.make n Reg.Set.empty;
          live_out = Array.make n Reg.Set.empty;
          keys = Array.make n [];
          before = Array.make n [||];
        })
    p.Cfg.funcs;
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds < 64 do
    incr rounds;
    stable := true;
    (* Per-function flow with the current summaries. *)
    Hashtbl.iter
      (fun fname fi -> if flow_function t fname fi then stable := false)
      t.infos;
    (* Refresh summaries. *)
    Hashtbl.iter
      (fun fname (fi : finfo) ->
        let e = if Fgraph.n_blocks fi.g > 0 then fi.live_in.(0) else Reg.Set.empty in
        if not (Reg.Set.equal e (lookup t.entry_live fname)) then begin
          Hashtbl.replace t.entry_live fname e;
          stable := false
        end)
      t.infos;
    List.iter
      (fun (f : Cfg.func) ->
        let caller = Hashtbl.find t.infos f.Cfg.fname in
        List.iteri
          (fun bi (b : Cfg.block) ->
            ignore bi;
            match b.Cfg.term with
            | Instr.Call (callee, ret) ->
                let ret_blk = Fgraph.block_id caller.g ret in
                let live_ret = caller.live_in.(ret_blk) in
                let old = lookup t.ret_uses callee in
                let merged = Reg.Set.union old live_ret in
                if not (Reg.Set.equal merged old) then begin
                  Hashtbl.replace t.ret_uses callee merged;
                  stable := false
                end
            | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
          f.Cfg.blocks)
      p.Cfg.funcs
  done;
  t

let find t fname =
  match Hashtbl.find_opt t.infos fname with
  | Some fi -> fi
  | None -> invalid_arg (Printf.sprintf "Ipliveness: unknown function %s" fname)

let live_at t ~fname (p : Fgraph.point) =
  let fi = find t fname in
  let blk = p.Fgraph.blk in
  let b = fi.g.Fgraph.blocks.(blk) in
  let instrs = b.Cfg.instrs in
  let table = fi.before.(blk) in
  let table =
    if Array.length table > 0 && fi.keys.(blk) == instrs then table
    else begin
      let body = Array.of_list instrs in
      let n = Array.length body in
      let table =
        Array.make (n + 1) (Reg.Set.union fi.live_out.(blk) (term_uses t ~fname b.Cfg.term))
      in
      for j = n - 1 downto 0 do
        let i = body.(j) in
        table.(j) <- Reg.Set.union (Instr.uses i) (Reg.Set.diff table.(j + 1) (Instr.defs i))
      done;
      fi.keys.(blk) <- instrs;
      fi.before.(blk) <- table;
      table
    end
  in
  table.(p.Fgraph.idx)

let graph t ~fname = (find t fname).g
