(** Counterexample minimization.

    A failing fault-injection case is a triple — program, attack
    schedule, injection ordinals.  The shrinker greedily minimizes all
    three while the caller-supplied [check] keeps reporting "still
    failing": delta-debugging chunk deletion over each basic block's
    instruction list (on {!Gecko_core.Copy.program} deep copies — the
    original is never mutated), dropping/halving attack windows, and
    dropping/halving injection ordinals, iterated to a fixpoint.
    [to_ocaml] renders the result as a replayable OCaml fragment. *)

open Gecko_isa
module M = Gecko_machine.Machine

type repro = {
  r_prog : Cfg.program;
  r_schedule : Gecko_emi.Schedule.t;
  r_fires : int list;
}

val size : repro -> int
(** Static instructions + windows + fires (the shrinking metric). *)

val instr_count : repro -> int

val default_check :
  compile:(Cfg.program -> Link.image * Gecko_core.Meta.t) ->
  board:Gecko_machine.Board.t ->
  ?opts:M.options ->
  unit ->
  repro ->
  bool
(** [true] iff the repro still violates the crash-consistency oracle
    (its own golden run as reference).  Any exception along the way —
    compile rejection, link failure, a golden run that cannot complete —
    counts as "not failing", so shrinking never escapes into invalid
    programs.  Each candidate's image is decoded once, for its golden
    run and its replay together. *)

val shrink : ?max_rounds:int -> check:(repro -> bool) -> repro -> repro
(** Greedy fixpoint (at most [max_rounds] sweeps, default 8).  The
    result satisfies [check]; if the input does not, it is returned
    unchanged. *)

val to_ocaml : repro -> string
(** A replayable OCaml fragment: the program as an [Asm.parse]d [{gasm|…|gasm}]
    literal, the schedule from [Schedule.normalize] of explicit windows,
    and the fire list. *)
