(** Checkpoint-slot colouring — static double buffering (Section VI-D).

    A power failure in the middle of a boundary's checkpoint-store run
    must leave intact every slot the committed boundary's recovery state
    reads.  The pass therefore 2-colours, per register [r], the graph of
    emitted stores of [r] under span adjacency ({!Spans.edges}): store
    [b] of [r] is adjacent to store [a] when a path from just after [a]
    reaches [b] without crossing another store of [r] or a boundary
    where [r] is dead.  Edges cross functions via calls and returns.

    Two adjacent stores may share a colour when they write the same
    word: no path of the span between them defines [r].

    An odd cycle (the paper's "join point" conflict) is repaired by
    inserting a fresh boundary immediately after a cycle node that is
    the source of a directed cycle edge.  The repair boundary force-keeps
    only the conflicting register (or registers, when conflicts at one
    node share a repair) — the paper's "additional checkpoint that saves
    the problematic register to a different index" — and treats its
    other live-ins like any boundary's. *)

open Gecko_isa

type t

val color : t -> int -> Reg.t -> int
(** Colour of the checkpoint store of a register at a boundary; raises
    [Not_found] if that pair is not an emitted store. *)

type conflict
(** An odd cycle of one register's stores. *)

type attempt = Colored of t | Conflict of conflict

val try_color : Candidates.t -> Prune.result -> attempt
(** One colouring round: 2-colour every register's stores under the
    decisions, or name the first odd cycle met. *)

type repairs
(** The repair boundaries of one compile, each with the registers it
    force-keeps, and the repair inserted after each repaired node. *)

val repairs : unit -> repairs

val forced : repairs -> int -> Reg.Set.t
(** [forced t bid]: the registers repair boundary [bid] force-keeps;
    empty for any other boundary.  Pruning takes them through
    [Prune.analyze_with ~force_keep], so repair stores are first-class
    during pruning: the reuse pass sees them as unprunable owned stores
    rather than discovering them after the fact. *)

val repair : repairs -> next_id:int ref -> Candidates.t -> conflict -> unit
(** Repair the conflict found on [cands]: add its register to the
    repair already inserted after the chosen node, or insert a fresh
    [Boundary !next_id] there (mutating the program and shifting
    [cands.facts] through {!Candidates.boundary_inserted}).  The next
    round needs fresh candidates and decisions. *)
