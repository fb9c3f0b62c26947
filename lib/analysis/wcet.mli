(** Worst-case execution time of region spans.

    A {e span} is the code executed between two dynamic region-boundary
    crossings.  Because region formation places a boundary at every loop
    header (and at calls/returns), the boundary-free subgraph is acyclic
    and the longest span is well defined; {!Unbounded} is raised if a
    boundary-free cycle remains (i.e. region formation was skipped or
    buggy).

    The compiler compares each span against the cycles a fully charged
    capacitor can sustain (the "minimum time bound of the power-on
    period", Section VI-B) and splits oversized regions.

    {!compute} walks the span graph depth first and memoises every
    point in one array per block (a slot per instruction and one for
    the terminator), so each point is evaluated once; {!Unbounded}
    names the first point the walk meets again while it is still on
    the walk's stack. *)

exception Unbounded of string

type t

val compute : Fgraph.t -> t
(** May raise {!Unbounded}.  The result is a snapshot of the block
    bodies: a later insertion needs a fresh [compute]. *)

val boundary_spans : t -> (int * Fgraph.point * int) list
(** For each [Boundary id] instruction: [(id, its point, worst-case span
    of the region it opens)]. *)

val entry_span : t -> int
(** Worst-case cycles from function entry to the first boundary commit. *)

val worst_successor : t -> Fgraph.point -> Fgraph.point option
(** The next point along the worst-case path, if the span continues (used
    by the splitting pass to find where to cut). *)
