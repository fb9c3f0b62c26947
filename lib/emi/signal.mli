(** Attack RF signal: a single-tone sine wave, as used throughout the
    paper's DPI and remote experiments. *)

type t = { freq_hz : float; power_dbm : float }

val make : freq_mhz:float -> power_dbm:float -> t

val freq_mhz : t -> float

val power_watts : t -> float
(** dBm → watts. *)

val pp : Format.formatter -> t -> unit
