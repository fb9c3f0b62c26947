(** Adversarial EMI-schedule fuzzer.

    Instead of injecting faults directly, this layer searches the space
    of {!Gecko_emi.Schedule.t} attack schedules for ones that break the
    scheme the physical way: a recon run records when the victim
    checkpoints, an initial population aims attack windows at exactly
    those instants, and a mutation loop (split / merge / shift / move /
    re-scale / drop / add, from the [Schedule] combinators) hill-climbs
    on a fitness that rewards corruptions, checkpoint failures and
    brownouts — with an overriding bonus for an actual crash-consistency
    violation against the golden run. *)

open Gecko_isa
module M = Gecko_machine.Machine

val resonant_attack :
  ?power_dbm:float -> ?distance_m:float -> Gecko_machine.Board.t -> Gecko_emi.Attack.t
(** Remote attack tuned to the board's monitor-coupling resonance (the
    paper's frequency-sweep step, Section IV-B). *)

val checkpoint_times : M.event list -> float list
(** Times of [Ev_checkpoint] / [Ev_backup_signal] events — the instants
    worth attacking. *)

val checkpoint_schedule :
  attack:Gecko_emi.Attack.t -> width:float -> float list -> Gecko_emi.Schedule.t
(** One window of [width] seconds centred on each given time. *)

type counters = {
  c_corruptions : int;
  c_ckpt_failures : int;
  c_brownouts : int;
  c_detections : int;
  c_completions : int;
}

type failure = { f_schedule : Gecko_emi.Schedule.t; f_detail : string }

type result = {
  evals : int;  (** Simulator runs spent. *)
  best_score : float;
  best_schedule : Gecko_emi.Schedule.t;
  best : counters;  (** Counters of the best-scoring run. *)
  failures : failure list;
      (** Schedules whose run violated the crash-consistency oracle. *)
}

val score : counters -> oracle_failed:bool -> float

val fuzz :
  ?jobs:int ->
  ?budget:int ->
  ?seed:int ->
  ?opts:M.options ->
  board:Gecko_machine.Board.t ->
  image:Link.image ->
  meta:Gecko_core.Meta.t ->
  unit ->
  result
(** Population search over schedules under [budget] (default 64) total
    evaluations.  Deterministic for a fixed [seed], [budget] and [jobs]
    (evaluation batches are mapped in input order).  With [jobs] > 1
    the batches run on the process-wide {!Gecko_util.Pool.shared} pool
    of that size, serially otherwise.  The image is decoded once and the
    decode shared by every run. *)
