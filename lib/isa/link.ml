type linked_instr =
  | Op of Instr.t
  | Ljmp of int
  | Lbr of Instr.cond * Reg.t * int * int
  | Lcall of int * int
  | Lret
  | Lhalt

type image = {
  prog : Cfg.program;
  code : linked_instr array;
  entry : int;
  block_index : (string * string, int) Hashtbl.t;
  space_base : int array;
  data_words : int;
  stack_base : int;
  stack_words : int;
  jit_base : int;
  gecko_base : int;
  sys_base : int;
  nvm_words : int;
  boundary_index : (int, int) Hashtbl.t;
}

let stack_default = 64

module Cells = struct
  let jit_regs = 0
  let jit_pc = 16
  let jit_ack = 17
  let jit_words = 18
  let gecko_slot r colour = (Reg.to_int r * 2) + colour
  let gecko_words = 32
  let sys_boundary = 0
  let sys_parity = 1
  let sys_progress = 2
  let sys_ratchet_lo = 3
  let sys_ack_seen = 35
  let sys_mode = 36
  let sys_words = 37
end

let link ?(stack_words = stack_default) ?(guards = []) (p : Cfg.program) =
  if guards <> [] then
    invalid_arg "Link.link: images carry no speculation guards";
  (* Pass 1: assign slot indices to blocks. *)
  let block_index = Hashtbl.create 64 in
  let slots = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          Hashtbl.replace block_index (f.Cfg.fname, b.Cfg.label) !slots;
          slots := !slots + List.length b.Cfg.instrs + 1)
        f.Cfg.blocks)
    p.Cfg.funcs;
  let code = Array.make (max 1 !slots) Lhalt in
  let boundary_index = Hashtbl.create 16 in
  let lookup fname label =
    match Hashtbl.find_opt block_index (fname, label) with
    | Some i -> i
    | None ->
        invalid_arg (Printf.sprintf "Link: unresolved label %s/%s" fname label)
  in
  (* Pass 2: emit. *)
  let pos = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      List.iter
        (fun (b : Cfg.block) ->
          List.iter
            (fun i ->
              (match i with
              | Instr.Boundary id -> Hashtbl.replace boundary_index id !pos
              | _ -> ());
              code.(!pos) <- Op i;
              incr pos)
            b.Cfg.instrs;
          (code.(!pos) <-
            (match b.Cfg.term with
            | Instr.Jmp l -> Ljmp (lookup f.Cfg.fname l)
            | Instr.Br (c, r, t, e) ->
                Lbr (c, r, lookup f.Cfg.fname t, lookup f.Cfg.fname e)
            | Instr.Call (callee, ret) ->
                let callee_entry =
                  let cf = Cfg.find_func p callee in
                  lookup callee (Cfg.entry_block cf).Cfg.label
                in
                Lcall (callee_entry, lookup f.Cfg.fname ret)
            | Instr.Ret -> Lret
            | Instr.Halt -> Lhalt));
          incr pos)
        f.Cfg.blocks)
    p.Cfg.funcs;
  (* Data layout. *)
  let n_spaces =
    List.fold_left
      (fun acc (s : Instr.space) -> max acc (s.Instr.space_id + 1))
      0 p.Cfg.spaces
  in
  let space_base = Array.make (max 1 n_spaces) 0 in
  let data_words = ref 0 in
  List.iter
    (fun (s : Instr.space) ->
      space_base.(s.Instr.space_id) <- !data_words;
      data_words := !data_words + s.Instr.space_words)
    p.Cfg.spaces;
  let stack_base = !data_words in
  let jit_base = stack_base + stack_words in
  let gecko_base = jit_base + Cells.jit_words in
  let sys_base = gecko_base + Cells.gecko_words in
  let nvm_words = sys_base + Cells.sys_words in
  let entry =
    let mf = Cfg.find_func p p.Cfg.main in
    lookup p.Cfg.main (Cfg.entry_block mf).Cfg.label
  in
  {
    prog = p;
    code;
    entry;
    block_index;
    space_base;
    data_words = !data_words;
    stack_base;
    stack_words;
    jit_base;
    gecko_base;
    sys_base;
    nvm_words;
    boundary_index;
  }

let resolve img (m : Instr.mref) regs =
  let base = img.space_base.(m.Instr.space.Instr.space_id) in
  let d =
    match m.Instr.disp with
    | Instr.Dconst c -> c
    | Instr.Dreg r -> regs.(Reg.to_int r)
  in
  base + d

let disasm img =
  let buf = Buffer.create 4096 in
  (* Invert the block index for labelling. *)
  let starts = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (f, l) i -> Hashtbl.replace starts i (Printf.sprintf "%s/%s" f l))
    img.block_index;
  Array.iteri
    (fun i li ->
      (match Hashtbl.find_opt starts i with
      | Some name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name)
      | None -> ());
      let body =
        match li with
        | Op op -> Instr.to_string op
        | Ljmp t -> Printf.sprintf "jmp @%d" t
        | Lbr (c, r, t, e) ->
            Format.asprintf "br.%s %a, @%d, @%d"
              (match c with
              | Instr.Z -> "z"
              | Instr.Nz -> "nz"
              | Instr.Ltz -> "ltz"
              | Instr.Gez -> "gez"
              | Instr.Gtz -> "gtz"
              | Instr.Lez -> "lez")
              Reg.pp r t e
        | Lcall (t, ret) -> Printf.sprintf "call @%d ret @%d" t ret
        | Lret -> "ret"
        | Lhalt -> "halt"
      in
      Buffer.add_string buf (Printf.sprintf "  %4d: %s\n" i body))
    img.code;
  Buffer.contents buf
