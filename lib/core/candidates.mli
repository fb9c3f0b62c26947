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

type t = {
  prog : Cfg.program;
  funcs : Cfg.func array;
  graphs : A.Fgraph.t array;
  sites : site list;
  hazards : A.Alias.hazard list;
      (** Residual may-alias WAR hazards (empty once region formation has
          run): pruning keeps every candidate in a function that still
          carries one, and verification rejects the program. *)
}

val compute : Cfg.program -> t
(** Boundary sites with their live-ins, plus the sound syntactic hazard
    set of {!Gecko_analysis.Alias.war_hazards} in {!field-hazards}. *)

val site : t -> int -> site
(** Lookup by boundary id; raises [Not_found]. *)

val total_candidates : t -> int
