(** Exhaustive single-failure exploration (plus k=2 pairs).

    For a given image × scheme × board, the explorer injects one supply
    collapse at every consultation site of the program's execution (all
    event / checkpoint-word / rollback-step sites, and every instruction
    boundary up to the run budget — stride-sampled beyond it) and checks
    each post-recovery run against the golden uninterrupted run: the
    final data segment must be equal, the run must still complete, and
    the golden [io_log] must survive as a subsequence of the observed
    one (re-execution may legally duplicate outputs, but never lose or
    reorder them).

    This is the DiCA-style directed counterpart to the random
    [Schedule.t] sampling of the property tests: a
    wrong-at-one-boundary recovery bug cannot hide from it. *)

open Gecko_isa
module M = Gecko_machine.Machine

type failure = {
  f_fires : int list;  (** Injection ordinals of the failing replay. *)
  f_kind : string;  (** {!Inject.kind_name} of the (first) fired site. *)
  f_time : float;  (** Simulated time of the first fired site. *)
  f_detail : string;  (** Oracle message. *)
}

type report = {
  sites_total : int;  (** Consultations in the uninjected run. *)
  sites_by_kind : (string * int) list;
  explored : int;  (** Single-failure replays executed. *)
  explored_pairs : int;  (** k=2 replays executed. *)
  event_sites_covered : bool;
      (** Every non-[instr] site got its own replay (budget permitting). *)
  instr_stride : int;
      (** 1 = every instruction boundary was explored exhaustively. *)
  failures : failure list;
  baseline_ok : bool;  (** The uninjected run itself passes the oracle. *)
}

val golden :
  ?max_sim_time:float ->
  ?decoded:Gecko_machine.Decode.t ->
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  unit ->
  int array * (int * int) list
(** Final data segment and [io_log] of one uninterrupted run on
    continuous power (the oracle's reference).  Raises
    [Invalid_argument], with a message naming the limit, if the program
    cannot complete within [max_sim_time] (default 30 s) of simulated
    time even on continuous power.  [decoded] is passed on as the run's
    {!M.options.decoded}. *)

val oracle :
  golden_nvm:int array ->
  golden_io:(int * int) list ->
  M.outcome ->
  nvm:int array ->
  (unit, string) result
(** The crash-consistency check applied to every replay. *)

val default_opts : M.options
(** [Completions 1], IO recorded, a 30 s simulated-time safety cap. *)

val explore :
  ?jobs:int ->
  ?budget:int ->
  ?pairs:int ->
  ?seed:int ->
  ?opts:M.options ->
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  unit ->
  report
(** [budget] (default 256) caps the number of single-failure replays:
    non-[instr] sites are covered first (they are the protocol-critical
    ones), then instruction boundaries at the smallest stride that fits.
    [pairs] (default 0) adds that many seeded-random k=2 replays.
    [jobs] > 1 fans replays out over the process-wide pool of that
    size ({!Gecko_util.Pool.shared}); results are independent of the
    pool size.

    The image is decoded once and the decode shared by every run of the
    sweep.  Replays fork from snapshots of the uninjected run (see
    {!Inject.snapshots}) instead of re-running the prefix before their
    first fire, so [opts] must carry no trace, metrics registry or
    flight recorder: [Invalid_argument] otherwise. *)
