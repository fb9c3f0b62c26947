(** Natural-loop detection from back edges.

    A back edge is an edge [b -> h] where [h] dominates [b]; [h] is a loop
    header.  GECKO places a region boundary at every loop header (Section
    VI-B, "Loop and I/O operation"), which also guarantees the WCET span
    graph is acyclic. *)

type loop = { header : int; body : int list (* includes the header *) }

type t

val compute : Fgraph.t -> Dom.t -> t

val headers : t -> int list

val loops : t -> loop list
