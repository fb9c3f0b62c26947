open Gecko_isa

exception Unbounded of string

(* [memo.(blk).(idx)]: the worst-case cycles from the point to the end of
   its span, [unknown] before the traversal reaches it and [in_progress]
   while it is on the traversal's stack.  One slot per instruction plus
   the terminator position. *)
type t = { g : Fgraph.t; instrs : Instr.t array array; memo : int array array }

let unknown = -1
let in_progress = -2

let rec cycles t (p : Fgraph.point) =
  let row = t.memo.(p.Fgraph.blk) in
  let c = row.(p.Fgraph.idx) in
  if c >= 0 then c
  else begin
    if c = in_progress then
      raise
        (Unbounded
           (Format.asprintf "boundary-free cycle through %a" (Fgraph.pp_point t.g) p));
    row.(p.Fgraph.idx) <- in_progress;
    let body = t.instrs.(p.Fgraph.blk) in
    let c =
      if p.Fgraph.idx < Array.length body then
        match body.(p.Fgraph.idx) with
        | Instr.Boundary _ as b ->
            (* The commit closes the span; its own cost is charged here. *)
            Cost.instr_cycles b
        | i -> Cost.instr_cycles i + cycles t { p with Fgraph.idx = p.Fgraph.idx + 1 }
      else
        let term = t.g.Fgraph.blocks.(p.Fgraph.blk).Cfg.term in
        let base = Cost.term_cycles term in
        match term with
        | Instr.Call _ | Instr.Ret | Instr.Halt ->
            (* Callee entries and return blocks open with their own
               boundaries, so the span ends at the control transfer. *)
            base
        | Instr.Jmp _ | Instr.Br _ ->
            base
            + List.fold_left
                (fun acc s -> max acc (cycles t { Fgraph.blk = s; idx = 0 }))
                0 t.g.Fgraph.succ.(p.Fgraph.blk)
    in
    row.(p.Fgraph.idx) <- c;
    c
  end

let compute (g : Fgraph.t) =
  let instrs =
    Array.map (fun (b : Cfg.block) -> Array.of_list b.Cfg.instrs) g.Fgraph.blocks
  in
  let memo = Array.map (fun body -> Array.make (Array.length body + 1) unknown) instrs in
  let t = { g; instrs; memo } in
  (* Force evaluation from the entry and from behind every boundary so
     Unbounded surfaces at compute time. *)
  if Fgraph.n_blocks g > 0 then
    ignore (cycles t { Fgraph.blk = 0; idx = 0 });
  Array.iteri
    (fun bi body ->
      Array.iteri
        (fun idx i ->
          match i with
          | Instr.Boundary _ ->
              ignore (cycles t { Fgraph.blk = bi; idx = idx + 1 })
          | _ -> ())
        body)
    instrs;
  t
let boundary_spans t =
  let acc = ref [] in
  Array.iteri
    (fun bi body ->
      Array.iteri
        (fun idx i ->
          match i with
          | Instr.Boundary id ->
              let p = { Fgraph.blk = bi; idx } in
              let span = cycles t { Fgraph.blk = bi; idx = idx + 1 } in
              acc := (id, p, span) :: !acc
          | _ -> ())
        body)
    t.instrs;
  List.rev !acc

let entry_span t =
  if Fgraph.n_blocks t.g = 0 then 0 else cycles t { Fgraph.blk = 0; idx = 0 }

let worst_successor t (p : Fgraph.point) =
  let body = t.instrs.(p.Fgraph.blk) in
  if p.Fgraph.idx < Array.length body then
    match body.(p.Fgraph.idx) with
    | Instr.Boundary _ -> None
    | _ -> Some { p with Fgraph.idx = p.Fgraph.idx + 1 }
  else
    match t.g.Fgraph.blocks.(p.Fgraph.blk).Cfg.term with
    | Instr.Call _ | Instr.Ret | Instr.Halt -> None
    | Instr.Jmp _ | Instr.Br _ ->
        let best = ref None and best_c = ref (-1) in
        List.iter
          (fun s ->
            let c = cycles t { Fgraph.blk = s; idx = 0 } in
            if c > !best_c then begin
              best_c := c;
              best := Some { Fgraph.blk = s; idx = 0 }
            end)
          t.g.Fgraph.succ.(p.Fgraph.blk);
        !best
