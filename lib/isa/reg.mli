(** Machine registers.

    The simulated MCU has a 16-entry volatile register file, mirroring the
    MSP430 register count.  [r15] is reserved by convention as the stack
    pointer for programs that use calls. *)

type t = private int

val count : int
(** Number of architectural registers (16). *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [0, count). *)

val to_int : t -> int

val all : t list
(** All registers in index order. *)

val sp : t
(** Stack-pointer convention register (r15). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t
val r14 : t
val r15 : t

(** Register sets as 16-bit masks.  [iter], [fold] and [elements] visit
    members in ascending register order. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool
  val singleton : elt -> t
  val add : elt -> t -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val diff : t -> t -> t
  val inter : t -> t -> t
  val equal : t -> t -> bool
  val cardinal : t -> int
  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> elt list
  val of_list : elt list -> t
end
