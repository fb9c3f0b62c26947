(** Span walks over boundary sites: who can be the next boundary after
    whom at runtime, across functions (calls flow into callee entries,
    returns flow to every call site's return block).

    Shared by slot colouring (consecutive-store adjacency) and the
    verification pass (crash windows). *)

type t

val make : Candidates.t -> t

val iter_window : t -> Candidates.site -> f:(int -> int -> int -> Gecko_isa.Instr.t -> unit) -> unit
(** Visit every instruction position [(func, blk, idx, instr)] reachable
    from just after the site before crossing any boundary — the site's
    crash window.  Slot stores ([Ckpt]) of the next boundary execute
    inside this window, before its commit. *)

val edges : t -> stops:(int -> bool) -> (int * int) list
(** Directed pairs [(a, b)]: from just after boundary [a], boundary [b]
    is the first boundary satisfying [stops] on some path.  Only
    boundaries satisfying [stops] are used as walk sources. *)
