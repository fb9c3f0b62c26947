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

    Then {!split} cuts every region that cannot finish within one charge
    cycle (steps 3–4).  This module places every boundary and cuts every
    hazard; {!violations} (the [Verify.idempotence] gate) rejects any
    that remains.  Nothing downstream handles a residual hazard. *)

open Gecko_isa

val form :
  ?metrics:Gecko_obs.Metrics.registry -> next_id:int ref -> Cfg.program -> int
(** Returns the number of boundaries inserted.  The anti-dependence cuts
    go in one at a time, each before the store of the first residual
    hazard in program order; the hazard search resumes after each cut
    ({!Gecko_analysis.Alias.first_hazard}) rather than restarting.
    [metrics] counts the searches ([pipeline.war.searches]) and the
    loads they walk ([pipeline.war.loads_walked]).  Idempotent:
    re-running it on a formed program inserts nothing. *)

val split :
  ?metrics:Gecko_obs.Metrics.registry ->
  next_id:int ref ->
  budget:int ->
  ckpt_overhead:int ->
  Cfg.program ->
  int
(** WCET-driven region splitting of a formed program.  Every boundary's
    worst-case span, plus [ckpt_overhead] (an estimate of the checkpoint
    stores the scheme will add at the next boundary), must fit [budget]
    cycles; an oversized span is cut by a boundary roughly halfway along
    its worst-case path, and the WCET analysis reruns until every region
    fits.  Returns the number of boundaries inserted.

    Cut points avoid WARAW-protected positions (between an exempting
    store and the load it protects) when the span offers another; when
    it does not, the cut breaks the exemption and, once every span
    fits, the resumable WAR cuts of {!form} run again (counted in
    [metrics] like {!form}'s).  Without a WCET cut they do not run: the
    program is as hazard-free as {!form} left it.

    Raises [Invalid_argument] if the budget is too small to make progress
    (a single instruction plus checkpoint overhead exceeds it). *)

val max_span : Cfg.program -> int
(** Largest worst-case span over all boundaries of all functions, the
    entry spans included. *)

val violations : Cfg.program -> string list
(** Human-readable rendering of the residual may-alias WAR hazards
    ({!Gecko_analysis.Alias.war_hazards}; empty on a correctly formed
    program) — the final verification pass. *)
