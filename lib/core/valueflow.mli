(** Segment-level value identity between checkpoint stores.

    Two stores of register [r] at boundaries [a] and [b] write the same
    word whenever no definition of [r] (including call-clobber
    pseudo-definitions) can execute on a path from [a] to [b] that does
    not re-cross [a].  Such stores may share a slot colour: a partial
    overwrite leaves the same value in place.  This exemption is what
    makes 2-colouring feasible when several boundaries of one loop all
    checkpoint the same register (e.g. the unpruned configuration). *)

open Gecko_isa

val same_value_over_edge :
  Candidates.t -> Reg.t -> src:Candidates.site -> dst:Candidates.site -> bool
(** Conservative: [false] whenever the sites are in different functions. *)
