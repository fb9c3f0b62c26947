(** The deterministic injection driver under the explorer and the
    shrinker.

    The simulator consults its injector at every {!Gecko_machine.Machine.inject_site}
    in a deterministic order, so the [n]-th consultation of a run — its
    {e ordinal} — identifies an exact physical instant reproducibly.
    [census] enumerates every consultation of an uninjected run;
    [run_with_fires] replays the run forcing a supply collapse at chosen
    ordinals.  With more than one fire, ordinals past the first count
    consultations of the {e modified} execution (the run after the first
    failure), which keeps multi-failure replays well defined.

    Every replay goes through one driver: step the checked path, firing
    at the chosen ordinals, until the last of them has been consulted,
    then finish on block dispatch.  [run_with_fires] starts it at
    power-on; [replay] starts it from a fork of the uninjected run taken
    at or before the first fire's step, which skips the common prefix. *)

open Gecko_isa
module M = Gecko_machine.Machine

(** Coarse classification of a consultation site, used by the explorer's
    coverage accounting. *)
type kind =
  | K_instr  (** Instruction fetch boundary. *)
  | K_event of string  (** Runtime event (trace-id name, e.g. ["checkpoint"]). *)
  | K_ckpt_word  (** NVM word write inside the JIT checkpoint ISR. *)
  | K_rollback_step  (** Restore/recovery step of a rollback. *)

val kind_name : kind -> string
(** ["instr"], ["event:<name>"], ["ckpt_word"], ["rollback_step"]. *)

type site = {
  s_ordinal : int;  (** Consultation index within the run. *)
  s_kind : kind;
  s_time : float;  (** Simulated time of the consultation. *)
  s_instr : int;  (** Instructions executed when it was consulted. *)
  s_step : int;
      (** Steps ({!M.Step.step}) completed before the one that consulted
          it. *)
}

val with_decode :
  board:Gecko_machine.Board.t -> image:Link.image -> M.options -> M.options
(** [opts] with [decoded] set to one {!Gecko_machine.Decode.decode} of
    [image] for the board's device, unless it already holds one of
    [image].  Runs sharing the result skip the per-run decode. *)

val census :
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  M.options ->
  site array * M.outcome * int array
(** Run to completion with a counting injector (which never fires) and
    return every consultation site in order, plus the run's outcome and
    final data-segment snapshot. *)

val run_with_fires :
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  M.options ->
  fires:int list ->
  M.outcome * int array
(** Replay the run forcing a supply collapse at each ordinal in [fires];
    returns the outcome and the final data-segment snapshot.  Ordinals
    beyond the run's consultation count simply never fire. *)

val drive :
  M.Step.handle -> consulted:int -> fires:int list -> M.outcome * int array
(** The replay driver from any step boundary: the handle has made [consulted]
    injector consultations so far (and none of them fired).  Installs an
    injector that fires at the ordinals in [fires] (counting on from
    [consulted]), steps the checked path until the last of them has been
    consulted, removes the injector and finishes the run on
    {!M.Step.step_block}.  Returns the outcome and the final data
    segment.  A fork of an uninjected run at a boundary no later than
    the first fire's step, driven here, equals [run_with_fires] from
    power-on. *)

type snapshots
(** Forks of one uninjected run at evenly spaced step boundaries, with
    the consultation count at each. *)

val snapshots :
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  M.options ->
  site array ->
  snapshots
(** One counting pass over the run whose {!census} is [sites], keeping a
    fork every ⌈√steps⌉ step boundaries, where steps is the number of
    steps the census spans: O(√steps) forks in memory and fewer than
    ⌈√steps⌉ prefix steps re-run per replay.  Raises [Invalid_argument]
    if [opts] carries a metrics registry or a flight recorder (every
    replay would record into a discarded copy) or a trace (see
    {!M.Step.fork}). *)

val replay : snapshots -> fires:int list -> M.outcome * int array
(** [run_with_fires] for the same run and [fires], started from the
    latest fork at or before the first fire's step.  The forks are only
    read, so replays may run concurrently on several domains. *)
