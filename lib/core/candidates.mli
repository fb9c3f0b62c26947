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
  graphs : A.Fgraph.t array;
      (** per function, indexed like {!funcs}: {!Ipliveness}'s graphs,
          over the program's own block records *)
  clobbers : A.Clobbers.t Lazy.t;
  doms : A.Dom.t Lazy.t array;  (** per function, indexed like {!funcs} *)
  reaching : A.Reaching.t Lazy.t array;
      (** Reaching definitions per function, a call defining the
          callee's clobber set.  Not block-level: a boundary insertion
          moves definition points, and {!boundary_inserted} shifts them
          in place. *)
  defsites : A.Fgraph.point list array Lazy.t array;
      (** Per function, per register: every definition point ({!defsites}).
          Position-bearing like [reaching], and shifted with it. *)
  memos : memos;
}
(** What a repair boundary cannot change.  Inserting a [Boundary]
    (which neither uses nor defines a register) changes no block-level
    fact, shifts the reaching definitions' points consistently, and
    keeps every {!reaches_avoiding} answer, so [Pipeline.compile]
    computes these once per compile and passes them to every colouring
    round's {!compute}.

    The facts describe the program they were computed on plus every
    boundary reported through {!boundary_inserted}.  Emitting checkpoint
    stores needs fresh facts; putting the physically identical
    instruction lists back afterwards makes these valid again. *)

and memos
(** The {!reaches_avoiding} memo, block-level, and each block's sites,
    keyed on the block's instruction list: both live as long as the
    facts. *)

type index
(** The per-round lookup table behind {!site}. *)

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  facts : facts;
  index : index;
}

val facts : Cfg.program -> facts

val boundary_inserted : facts -> func:int -> A.Fgraph.point -> unit
(** A [Boundary] was inserted at the point of function [func]: shift the
    position-bearing facts (the reaching definitions and the definition
    sites, where already computed).  A boundary defines nothing, so
    afterwards both answer as a fresh {!facts} of the changed program
    would. *)

val compute : ?facts:facts -> Cfg.program -> t
(** Boundary sites with their live-ins, in program order.  [facts]
    defaults to a fresh analysis of the program.  A block whose
    instruction list is physically the one the facts last read it from
    gives back the same sites, so a round after a repair reads only the
    repaired block again. *)

val site : t -> int -> site
(** Lookup by boundary id; raises [Not_found]. *)

val defsites : t -> int -> Reg.t -> A.Fgraph.point list
(** [defsites t fi r]: every definition point of [r] in function [fi],
    a call terminator counting as a definition of the callee's clobber
    set.  Computed once per function from [t.facts] (at its first query)
    and shifted by {!boundary_inserted}, so every round sharing the
    facts reads the same table. *)

val reaches_avoiding : t -> int -> avoid:int -> from:int -> int -> bool
(** [reaches_avoiding t fi ~avoid ~from dst]: some path of function [fi]
    leaves block [from] through a successor edge and arrives at block
    [dst] without passing through block [avoid] on the way (arriving at
    [avoid] itself counts).  Memoised per [(fi, avoid, from)] in
    [t.facts], so the memo serves every round that shares the facts. *)
