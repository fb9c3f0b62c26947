(** Non-volatile main memory (FRAM-like).

    Word-addressed, byte-granularity is not modelled.  FRAM on MSP430-class
    parts has symmetric read/write latency and effectively unlimited
    endurance, so the model keeps no wear state, and no access counts
    either.

    Contents survive power failure by construction: the machine never
    clears an [Nvm.t] across simulated outages. *)

type t

val create : words:int -> unit -> t

val copy : t -> t
(** An independent memory with the same contents. *)

val words : t -> int

val read : t -> int -> int
(** Raises [Invalid_argument "Nvm: address <a> out of range [0,<n>)"] on
    an out-of-range address, as does {!write}.  Every access is checked;
    the check costs two comparisons and no extra call. *)

val write : t -> int -> int -> unit

val load_program : t -> Gecko_isa.Link.image -> unit
(** Install the initial data-segment contents of an image (space initial
    values; everything else zeroed). *)

val snapshot : t -> int array
(** Copy of the full contents. *)

val restore : t -> int array -> unit

val diff : int array -> int array -> (int * int * int) list
(** [diff a b] lists [(addr, a_val, b_val)] where the two snapshots
    disagree. *)
