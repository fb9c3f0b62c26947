type t = {
  capacitance : float;
  v_max : float;
  mutable voltage : float;
  mutable drained_total : float;
  mutable sourced_total : float;
}

let create ~capacitance ~v_max ~v_init =
  if capacitance <= 0. then invalid_arg "Capacitor.create: capacitance <= 0";
  if v_init < 0. || v_init > v_max then
    invalid_arg "Capacitor.create: v_init out of range";
  { capacitance; v_max; voltage = v_init; drained_total = 0.; sourced_total = 0. }

let copy t = { t with voltage = t.voltage }

let capacitance t = t.capacitance
let voltage t = t.voltage
let v_max t = t.v_max
let energy t = 0.5 *. t.capacitance *. t.voltage *. t.voltage

let set_voltage t v =
  if v < 0. || v > t.v_max then invalid_arg "Capacitor.set_voltage: out of range";
  t.voltage <- v

let drain t joules =
  if joules <= 0. then 0.
  else
    let e = energy t in
    let removed = min joules e in
    let e' = e -. removed in
    t.voltage <- sqrt (2. *. e' /. t.capacitance);
    t.drained_total <- t.drained_total +. removed;
    removed

let source_current t ~amps ~dt =
  if amps > 0. && dt > 0. then begin
    let e0 = energy t in
    let dv = amps *. dt /. t.capacitance in
    t.voltage <- min t.v_max (t.voltage +. dv);
    t.sourced_total <- t.sourced_total +. (energy t -. e0)
  end

let energy_drained_total t = t.drained_total
let energy_sourced_total t = t.sourced_total

(* Batched-integration entry point for block-level dispatch: the stored
   energy at voltage [v], with the exact float expression of [energy] so
   an energy-space comparison agrees bit-for-bit with a voltage-space
   one (x -> 0.5*C*x*x rounds monotonically, so E(v1) > E(v2) implies
   v1 > v2). *)
let stored_energy_at ~capacitance v = 0.5 *. capacitance *. v *. v

let charge_time_rc ~capacitance ~v_source ~r_source ~v_from ~v_to =
  if v_to >= v_source then infinity
  else if v_to <= v_from then 0.
  else
    (* V(t) = Vs - (Vs - V0) e^{-t/RC} *)
    r_source *. capacitance
    *. log ((v_source -. v_from) /. (v_source -. v_to))
