(** Bench stub.  The pipeline has exactly one (sound) mode; this
    one-constructor type survives only because [bench/perf/perf.ml]
    still names [Speculative] and passes it to {!Pipeline.compile},
    which ignores it. *)

type t = Speculative
