(** Pipeline soundness/speculation mode — supersedes the old bare
    [?sound] flag of {!Pipeline.compile}.

    [Legacy] is the seed's optimistic (unsound) compiler, kept only as
    the soundness-overhead measurement baseline.  [Sound] (the default)
    is the syntactic may-alias sound pipeline.  [Speculative] forms the
    same regions as [Sound] but reuses checkpoint slots optimistically
    (pruning the residual may-alias candidates the sound crash-window
    discipline kept alive) and emits runtime speculation guards (NVM
    undo-log appends) on the owned stores whose window clobbers cannot
    be proven harmless, so a rollback can restore the overwritten slot
    words before running the register restores. *)

type t = Legacy | Sound | Speculative

val default : t
(** [Sound]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive inverse of {!to_string}; also accepts ["spec"] for
    [Speculative]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val is_sound : t -> bool
(** Every mode except [Legacy]: rollback correctness is guaranteed
    (statically, or — for [Speculative] — via runtime guards). *)
