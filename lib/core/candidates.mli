(** Checkpoint candidates: the live-in register set of every region
    boundary.  These are the stores a naive idempotent compiler would
    emit; pruning then removes the reconstructible ones. *)

open Gecko_isa
module A = Gecko_analysis

type site = {
  s_id : int;  (** boundary id *)
  s_func : int;  (** index into {!funcs} *)
  s_point : A.Fgraph.point;  (** position of the [Boundary] instruction *)
  s_live : Reg.Set.t;  (** live-in registers = checkpoint candidates *)
}

type facts = {
  live : A.Ipliveness.t;
  clobbers : A.Clobbers.t Lazy.t;
  doms : A.Dom.t Lazy.t array;  (** per function, indexed like {!funcs} *)
  block_reach : A.Blockreach.t Lazy.t array;
}
(** Block-level facts of a program.  Inserting a [Boundary] (which
    neither uses nor defines a register) changes none of them, so the
    colouring loop computes them once and passes them to every round's
    {!compute}. *)

type index
(** Per-round lookup tables and memos behind {!site} and
    {!reaches_avoiding}. *)

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  hazards : A.Alias.hazard list Lazy.t;
      (** Residual may-alias WAR hazards (empty once region formation has
          run): pruning keeps every candidate in a function that still
          carries one, and verification rejects the program. *)
  facts : facts;
  index : index;
}

val facts : Cfg.program -> facts

val compute :
  ?facts:facts -> ?hazards:A.Alias.hazard list -> Cfg.program -> t
(** Boundary sites with their live-ins, plus the sound syntactic hazard
    set of {!Gecko_analysis.Alias.war_hazards} in {!field-hazards}.
    [facts] and [hazards] default to a fresh analysis of the program. *)

val site : t -> int -> site
(** Lookup by boundary id; raises [Not_found]. *)

val site_opt : t -> int -> site option

val defsites : t -> int -> Reg.t -> A.Fgraph.point list
(** [defsites t fi r]: every definition point of [r] in function [fi],
    a call terminator counting as a definition of the callee's clobber
    set. *)

val reaches_avoiding : t -> int -> avoid:int -> from:int -> int -> bool
(** [reaches_avoiding t fi ~avoid ~from dst]: some path of function [fi]
    leaves block [from] through a successor edge and arrives at block
    [dst] without passing through block [avoid] on the way (arriving at
    [avoid] itself counts).  Memoised per [(fi, avoid, from)] for the
    lifetime of [t]. *)

val total_candidates : t -> int
