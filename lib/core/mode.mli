(** Pipeline soundness/speculation mode.

    [Legacy] is the seed's optimistic (unsound) compiler, kept only as
    the soundness-overhead measurement baseline.  [Speculative] (the
    default) is the sound pipeline: it cuts every syntactic may-alias
    hazard at region formation, reuses checkpoint slots optimistically,
    and emits runtime speculation guards (NVM undo-log appends) on the
    owned stores whose window clobbers cannot be proven harmless, so a
    rollback can restore the overwritten slot words before running the
    register restores. *)

type t = Legacy | Speculative

val default : t
(** [Speculative]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive inverse of {!to_string}; also accepts ["spec"] for
    [Speculative]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
