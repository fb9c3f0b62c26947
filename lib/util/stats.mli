(** Small statistics toolkit for experiment post-processing.

    Empty-input policy: every aggregate in this module is total and
    returns [0.] on the empty list — including {!percentile} and
    {!median}.  Experiment code folds over runs whose event lists may
    legitimately be empty (e.g. no rollbacks under no attack), and a
    uniform zero beats a raise deep inside a sweep. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. on lists shorter than 2. *)

val minimum : float list -> float
(** Smallest element; 0. on the empty list. *)

val maximum : float list -> float
(** Largest element; 0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], linear interpolation between
    order statistics.  0. on the empty list; the sole element on a
    singleton (for any [p]). *)

val median : float list -> float
(** [percentile 50.]; 0. on the empty list. *)

val clamp : lo:float -> hi:float -> float -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary

(** Mergeable streaming summary: a commutative monoid over constant-space
    accumulators, so shards of a fleet campaign can aggregate locally and
    reduce at the end.  [merge] is exactly commutative; it is associative
    up to float-addition rounding in [sum]/[sumsq] (exact whenever the
    inputs are dyadic rationals of bounded magnitude, and count/min/max
    are always exact), so deterministic reductions fold shards in a fixed
    order.  Empty-input policy matches the rest of this module: the
    aggregates of {!Acc.empty} are [0.]. *)
module Acc : sig
  type t = {
    n : int;
    sum : float;
    sumsq : float;
    min_v : float;  (** [+inf] when empty. *)
    max_v : float;  (** [-inf] when empty. *)
  }

  val empty : t
  (** The identity of {!merge}. *)

  val is_empty : t -> bool
  val add : t -> float -> t
  val of_list : float list -> t

  val merge : t -> t -> t
  (** Combine two accumulators as if their observations were
      concatenated. *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val stddev : t -> float
  (** Population standard deviation from the running moments; [0.] on
      fewer than two observations. *)

  val minimum : t -> float
  val maximum : t -> float
end
