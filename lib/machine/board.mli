(** Board-level configuration: MCU + energy storage + thresholds +
    harvester (Fig. 1 of the paper). *)

open Gecko_devices
open Gecko_energy

type t = {
  device : Device.t;
  monitor_choice : Device.monitor_choice;
  capacitance : float;
  v_max : float;  (** Capacitor/supply ceiling. *)
  v_on : float;  (** Wake / reboot threshold. *)
  v_backup : float;  (** JIT checkpoint threshold. *)
  v_off : float;  (** Brownout: execution stops, volatile state lost. *)
  harvester : Harvester.t;
}

val default : ?device:Device.t -> ?harvester:Harvester.t -> unit -> t
(** MSP430FR5994 evaluation board with a 1 mF supercapacitor (Section
    VII-A): ADC monitor, 3.3 V ceiling, V_on 3.0, V_backup 2.2,
    V_off 1.8, bench DC supply unless a harvester is given. *)

val attack_rig : ?device:Device.t -> ?monitor_choice:Device.monitor_choice -> unit -> t
(** The DPI/remote attack bench of Section IV: +3.3 V DC supply through a
    small board-level storage capacitor (10 µF), so wake-ups inside the
    V_fail window leave real races between the checkpoint ISR and the
    brownout threshold. *)

val with_capacitance : t -> float -> t
(** Scale the capacitor, adjusting [v_backup] so the buffered energy
    between [v_on] and [v_backup] stays constant (Section VII-D). *)

val usable_energy : t -> float
(** Joules between [v_on] and [v_backup] — the guaranteed execution
    budget of one charge cycle. *)

val budget_cycles : t -> int
(** Conservative cycle budget per charge cycle for the WCET splitter
    (worst-case energy per cycle, 50% safety margin). *)

val pp : Format.formatter -> t -> unit
