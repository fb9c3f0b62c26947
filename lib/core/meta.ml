open Gecko_isa

type restore = { r_reg : Reg.t; r_color : int; r_owned : bool }
type recovery = { g_reg : Reg.t; g_slice : Instr.t list }

type binfo = {
  b_id : int;
  b_func : string;
  restores : restore list;
  recoveries : recovery list;
}

type stats = {
  boundaries : int;
  candidates : int;
  kept : int;
  pruned : int;
  reused : int;
  recovery_blocks : int;
  recovery_instrs : int;
  lookup_table_instrs : int;
}

type t = {
  scheme : Scheme.t;
  infos : (int, binfo) Hashtbl.t;
  stats : stats;
  guards : (string * string * int) list;
}

let zero_stats =
  {
    boundaries = 0;
    candidates = 0;
    kept = 0;
    pruned = 0;
    reused = 0;
    recovery_blocks = 0;
    recovery_instrs = 0;
    lookup_table_instrs = 0;
  }

let empty scheme =
  { scheme; infos = Hashtbl.create 16; stats = zero_stats; guards = [] }

let boundary_info t id = Hashtbl.find_opt t.infos id

let pp_stats ppf s =
  Format.fprintf ppf
    "boundaries=%d candidates=%d kept=%d pruned=%d (%.0f%%, %d reused) \
     recovery_blocks=%d recovery_instrs=%d lookup=%d"
    s.boundaries s.candidates s.kept s.pruned
    (if s.candidates = 0 then 0.
     else 100. *. float_of_int s.pruned /. float_of_int s.candidates)
    s.reused s.recovery_blocks s.recovery_instrs s.lookup_table_instrs
