open Gecko_isa

type def = Entry | Site of Fgraph.point

(* Definitions carry global ids: 0..15 are the entry pseudo-definitions
   of r0..r15, then one id per defining position in (block, index)
   order.  Each register also numbers its own definitions densely (local
   index 0 is its entry definition), and a block's reaching set for that
   register is a bitset over those local indices. *)
type t = {
  defs : def array;  (* global id -> definition *)
  ids : int array array;  (* reg -> local index -> global id, ascending *)
  words : int array;  (* reg -> bitset words *)
  offs : int array;  (* reg -> first word of its bitset in a block row *)
  stride : int;  (* words per block row *)
  in_bits : int array;  (* block * stride + offs.(reg) + word *)
  block_defs : (int * Reg.Set.t * int) array array;
      (* Instruction definitions of each block, in index order: position,
         registers defined, global id.  Call-clobber definitions sit at
         the terminator position and never precede an in-block point. *)
}

let def_equal a b =
  match (a, b) with
  | Entry, Entry -> true
  | Site p, Site q -> Fgraph.point_compare p q = 0
  | Entry, Site _ | Site _, Entry -> false

let bits = Sys.int_size
let all_regs = Reg.Set.of_list Reg.all

let compute ?(call_defs = fun _ -> all_regs) (g : Fgraph.t) =
  let n = Fgraph.n_blocks g in
  let defs = ref (List.rev_map (fun _ -> Entry) Reg.all) in
  let next = ref Reg.count in
  let local = Array.init Reg.count (fun r -> ref [ r ]) in
  let nlocal = Array.make Reg.count 1 in
  (* gen.(b * count + r): local index of the last definition of r in b. *)
  let gen = Array.make (n * Reg.count) (-1) in
  let block_defs = Array.make n [||] in
  let new_site bi idx regs =
    let id = !next in
    incr next;
    defs := Site { Fgraph.blk = bi; idx } :: !defs;
    Reg.Set.iter
      (fun r ->
        let ri = Reg.to_int r in
        local.(ri) := id :: !(local.(ri));
        gen.((bi * Reg.count) + ri) <- nlocal.(ri);
        nlocal.(ri) <- nlocal.(ri) + 1)
      regs;
    id
  in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      let here = ref [] in
      List.iteri
        (fun idx i ->
          let ds = Instr.defs i in
          if not (Reg.Set.is_empty ds) then
            here := (idx, ds, new_site bi idx ds) :: !here)
        b.Cfg.instrs;
      block_defs.(bi) <- Array.of_list (List.rev !here);
      match b.Cfg.term with
      | Instr.Call (callee, _) ->
          let ds = call_defs callee in
          if not (Reg.Set.is_empty ds) then
            ignore (new_site bi (List.length b.Cfg.instrs) ds)
      | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
    g.Fgraph.blocks;
  let ids = Array.map (fun l -> Array.of_list (List.rev !l)) local in
  let words = Array.map (fun k -> (k + bits - 1) / bits) nlocal in
  let offs = Array.make Reg.count 0 in
  for r = 1 to Reg.count - 1 do
    offs.(r) <- offs.(r - 1) + words.(r - 1)
  done;
  let stride = offs.(Reg.count - 1) + words.(Reg.count - 1) in
  let in_bits = Array.make (n * stride) 0 in
  (* Visit reachable blocks in reverse postorder, then the rest, until
     no reaching set grows: the least fixpoint does not depend on the
     order, only the number of sweeps does. *)
  let order =
    let rpo = Fgraph.rpo g in
    let seen = Array.make n false in
    Array.iter (fun b -> seen.(b) <- true) rpo;
    let rest = List.filter (fun b -> not seen.(b)) (List.init n Fun.id) in
    Array.append rpo (Array.of_list rest)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        for r = 0 to Reg.count - 1 do
          let row = (b * stride) + offs.(r) in
          for w = 0 to words.(r) - 1 do
            let acc = ref (if b = 0 && w = 0 then 1 else 0) in
            List.iter
              (fun p ->
                let k = gen.((p * Reg.count) + r) in
                if k < 0 then
                  acc := !acc lor in_bits.((p * stride) + offs.(r) + w)
                else if k / bits = w then
                  acc := !acc lor (1 lsl (k mod bits)))
              g.Fgraph.pred.(b);
            if !acc <> in_bits.(row + w) then begin
              in_bits.(row + w) <- !acc;
              changed := true
            end
          done
        done)
      order
  done;
  {
    defs = Array.of_list (List.rev !defs);
    ids;
    words;
    offs;
    stride;
    in_bits;
    block_defs;
  }

(* Global id of the last definition of [r] strictly before [p] inside
   its block, or -1 when the block-entry reaching set applies. *)
let local_def t r (p : Fgraph.point) =
  let defs = t.block_defs.(p.Fgraph.blk) in
  let rec scan j =
    if j < 0 then -1
    else
      let idx, regs, id = defs.(j) in
      if idx < p.Fgraph.idx && Reg.Set.mem r regs then id else scan (j - 1)
  in
  scan (Array.length defs - 1)

let rec ctz x n = if x land 1 = 1 then n else ctz (x lsr 1) (n + 1)

(* The global id of the one definition of [r] reaching [p], or -1 when
   none or several do. *)
let unique_id t r p =
  match local_def t r p with
  | -1 ->
      let ri = Reg.to_int r in
      let row = (p.Fgraph.blk * t.stride) + t.offs.(ri) in
      let rec go w found =
        if w = t.words.(ri) then found
        else
          let x = t.in_bits.(row + w) in
          if x = 0 then go (w + 1) found
          else if found >= 0 || x land (x - 1) <> 0 then -1
          else go (w + 1) ((w * bits) + ctz x 0)
      in
      let k = go 0 (-1) in
      if k < 0 then -1 else t.ids.(ri).(k)
  | id -> id

let reaching_at t r p =
  match local_def t r p with
  | -1 ->
      let ri = Reg.to_int r in
      let row = (p.Fgraph.blk * t.stride) + t.offs.(ri) in
      List.filter_map
        (fun k ->
          if t.in_bits.(row + (k / bits)) land (1 lsl (k mod bits)) <> 0 then
            Some t.defs.(t.ids.(ri).(k))
          else None)
        (List.init (Array.length t.ids.(ri)) Fun.id)
  | id -> [ t.defs.(id) ]

let unique_at t r p =
  match unique_id t r p with -1 -> None | id -> Some t.defs.(id)

let same_unique_def t r pa pb =
  let a = unique_id t r pa in
  a >= 0 && a = unique_id t r pb
