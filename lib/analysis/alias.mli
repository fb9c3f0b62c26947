(** Alias analysis over symbolic memory references, plus the conservative
    may-alias WAR/WARAW hazard set region formation consumes.

    Every reference names its allocation (space); two references may alias
    iff they address the same space and their displacements can coincide —
    a register displacement can coincide with anything in the space.
    Distinct spaces are distinct allocations by construction, so the
    analysis is sound and — for builder-written MCU kernels — precise
    enough to expose the WAR/WARAW structure region formation needs. *)

open Gecko_isa

val may_alias : Instr.mref -> Instr.mref -> bool

val location_read_only : Cfg.program -> Instr.mref -> bool
(** No store in the program can write this location: for a constant
    displacement, no aliasing store exists; for a dynamic displacement the
    whole space must be store-free.  Recovery-block loads require this. *)

(** {1 May-alias WAR hazards} *)

type hazard = {
  hz_func : string;  (** function containing the load *)
  hz_load : int * int;  (** (block, index) of the load *)
  hz_store_func : string;  (** function containing the store *)
  hz_store : int * int;  (** (block, index) of the store *)
  hz_ref : Instr.mref;  (** the load's reference *)
  hz_dynamic : bool;  (** either access is dynamically addressed *)
}

val war_hazards : Cfg.program -> hazard list
(** Every load → may-aliasing-store anti-dependence reachable without
    crossing a region boundary, WARAW-exempt pairs aside.  Re-executing
    such a region after the store reads the overwritten value — the
    idempotence violation region formation must cut (or double-buffer).
    The walk follows calls and returns and uses the clobber-aware WARAW
    exemption. *)

(** {2 Resumable search}

    Region formation cuts one hazard at a time.  A cut only truncates
    forward walks, so a load that was hazard-free stays so, apart from
    loads of the cut's own block, whose WARAW exemption the new
    boundary can break (the exemption's backward scan for the last
    write stops at the nearest boundary).  The search therefore resumes
    rather than restarting. *)

type walker
(** The forward-walk context of one program: a snapshot of every block
    body plus the call and return links. *)

val walker : Cfg.program -> walker

val refresh_block : walker -> func:int -> blk:int -> unit
(** Re-read the body of block [blk] of function [func] (an index into
    [p.funcs]) after the caller inserted into it. *)

val first_hazard : ?walked:int ref -> walker -> from:int * int * int -> hazard option
(** The first hazard, in {!war_hazards} order, whose load is at or after
    [from] = (function index, block, instruction index) in program
    order.  When every earlier load is hazard-free this is exactly the
    head of {!war_hazards}.  [walked] is incremented once per load whose
    forward walk ran. *)

val pp_hazard : Format.formatter -> hazard -> unit

val waraw_protected_intervals : Cfg.func -> (int * int * int) list
(** [(block, lo, hi)] triples: inserting a boundary at index [k] with
    [lo <= k <= hi] would separate a WARAW-exempt store from the load it
    protects, forcing region formation to cut again.  WCET splitting
    avoids these positions when it can. *)
