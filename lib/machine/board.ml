open Gecko_devices
open Gecko_energy

type t = {
  device : Device.t;
  monitor_choice : Device.monitor_choice;
  capacitance : float;
  v_max : float;
  v_on : float;
  v_backup : float;
  v_off : float;
  harvester : Harvester.t;
}

let default ?device ?harvester () =
  {
    device = Option.value device ~default:Catalog.evaluation_board;
    monitor_choice = Device.Use_adc;
    capacitance = 1e-3;
    v_max = 3.3;
    v_on = 3.0;
    v_backup = 2.2;
    v_off = 1.8;
    harvester =
      Option.value harvester ~default:(Harvester.constant_power 3.0e-3);
  }

let attack_rig ?device ?(monitor_choice = Device.Use_adc) () =
  let b = default ?device () in
  {
    b with
    monitor_choice;
    capacitance = 4.7e-6;
    harvester = Harvester.thevenin ~v_source:3.3 ~r_source:150.;
  }

let usable_energy t =
  0.5 *. t.capacitance *. ((t.v_on *. t.v_on) -. (t.v_backup *. t.v_backup))

let with_capacitance t c =
  if c <= 0. then invalid_arg "Board.with_capacitance";
  let e = usable_energy t in
  let v_backup_sq = (t.v_on *. t.v_on) -. (2. *. e /. c) in
  let v_backup = sqrt (max v_backup_sq (t.v_off *. t.v_off *. 1.05)) in
  { t with capacitance = c; v_backup }

let budget_cycles t =
  let worst_energy_per_cycle =
    Device.energy_per_cycle t.device +. t.device.Device.core.Device.nvm_write_energy
  in
  let cycles = usable_energy t /. worst_energy_per_cycle in
  max 64 (int_of_float (cycles *. 0.5))

let pp ppf t =
  Format.fprintf ppf
    "%s (%s monitor), C=%.1f mF, Von=%.2f Vb=%.2f Voff=%.2f, budget=%d cycles"
    t.device.Device.model
    (match t.monitor_choice with
    | Device.Use_adc -> "ADC"
    | Device.Use_comparator -> "comparator")
    (t.capacitance *. 1e3) t.v_on t.v_backup t.v_off (budget_cycles t)
