(* Bench stub: the pipeline has a single mode.  [bench/perf/perf.ml]
   still names [Speculative] and passes it to [Pipeline.compile ?mode],
   which ignores it; delete this module with those uses. *)

type t = Speculative
