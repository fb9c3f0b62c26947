(** Pipeline soundness/speculation mode.

    [Legacy] is the seed's optimistic (unsound) compiler, kept only as
    the soundness-overhead measurement baseline.  [Speculative] (the
    default) is the sound pipeline: it cuts every syntactic may-alias
    hazard at region formation, reuses checkpoint slots optimistically,
    and force-keeps every reuse whose slot a store overwrites inside the
    reuser's crash window, so slot safety is proven statically. *)

type t = Legacy | Speculative

val default : t
(** [Speculative]. *)

val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive inverse of {!to_string}; also accepts ["spec"] for
    [Speculative]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
