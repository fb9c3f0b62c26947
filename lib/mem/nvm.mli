(** Non-volatile main memory (FRAM-like).

    Word-addressed, byte-granularity is not modelled.  FRAM on MSP430-class
    parts has symmetric read/write latency and effectively unlimited
    endurance, so the model keeps no wear state, and no access counts
    either.

    Contents survive power failure by construction: the machine never
    clears an [Nvm.t] across simulated outages. *)

type t

val create : ?checked:bool -> words:int -> unit -> t
(** [checked] enables explicit address validation with a descriptive
    error message.  It defaults to false — all addresses come from the
    linker or from masked indices, and the validation sits on the
    simulator's instruction hot path — unless the [GECKO_CHECKED]
    environment variable is set to [1]/[true]/[yes]/[on].  Unchecked
    access is still memory-safe: an out-of-range address raises the
    runtime's own [Invalid_argument "index out of bounds"]. *)

val copy : t -> t
(** An independent memory with the same contents and mode. *)

val words : t -> int

val checked : t -> bool

val read : t -> int -> int
(** Raises [Invalid_argument] on an out-of-range address. *)

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
