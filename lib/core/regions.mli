(** Idempotent region formation (Section VI-B).

    Inserts [Boundary] instructions so that every span executed between
    two dynamic boundary crossings is idempotent:

    - a boundary at every function entry;
    - a boundary at every natural-loop header;
    - boundaries immediately before and after every I/O instruction
      (I/O must not silently replay across a whole region);
    - a boundary at the start of every call-return block (callee entries
      are covered by the function-entry rule);
    - anti-dependence cuts: for every hazard in the may-alias WAR set
      ({!Gecko_analysis.Alias.war_hazards} — dynamic register-addressed
      references included, followed across calls and returns), a boundary
      is inserted before the store — unless the pair is WARAW-exempt (a
      store provably to the same location precedes the load in the same
      block with no boundary and no may-aliasing store in between, so
      re-execution rewrites before re-reading).

    The pass runs to a fixpoint and is idempotent: re-running it on an
    already-formed program inserts nothing. *)

open Gecko_isa
module A = Gecko_analysis

val form : ?mode:Mode.t -> next_id:int ref -> Cfg.program -> int
(** Returns the number of boundaries inserted.  [mode] picks the hazard
    verdicts: [Legacy] is the seed's unsound analysis (intraprocedural,
    optimistic WARAW scan — only the soundness-overhead measurement
    baseline uses it); [Speculative] cuts the sound syntactic hazard
    set. *)

val hazards : ?mode:Mode.t -> Cfg.program -> A.Alias.hazard list
(** Residual may-alias WAR hazards under the mode's verdicts (empty on a
    correctly formed program). *)

val violations : ?mode:Mode.t -> Cfg.program -> string list
(** Human-readable rendering of {!hazards} — the final verification
    pass. *)
