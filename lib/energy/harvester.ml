type t =
  | Constant_power of float
  | Thevenin of { v_source : float; r_source : float }
  | Square_wave of { period : float; duty : float; inner : t }
  | Scripted of { segments : (float * t) array; total : float }
  | Rf_ambient of { seed : int; mean_power : float; flicker : float }
  | None_

let constant_power p = Constant_power p
let thevenin ~v_source ~r_source = Thevenin { v_source; r_source }

let square_wave ~period ~duty inner =
  if period <= 0. || duty < 0. || duty > 1. then
    invalid_arg "Harvester.square_wave: bad parameters";
  Square_wave { period; duty; inner }

let scripted segments =
  if segments = [] then invalid_arg "Harvester.scripted: empty";
  let arr = Array.of_list segments in
  let total = Array.fold_left (fun acc (d, _) -> acc +. d) 0. arr in
  if total <= 0. then invalid_arg "Harvester.scripted: zero total duration";
  Scripted { segments = arr; total }

let rf_ambient ~seed ~mean_power ~flicker =
  Rf_ambient { seed; mean_power; flicker }

let none = None_

(* Deterministic per-slot fluctuation from a hash of (seed, slot index). *)
let flicker_factor seed flicker time =
  let slot = int_of_float (time /. 0.005) in
  let h = Gecko_util.Rng.create ((seed * 1_000_003) + slot) in
  1.0 +. ((Gecko_util.Rng.float h 2.0 -. 1.0) *. flicker)

let rec current t ~time ~v =
  match t with
  | Constant_power p ->
      let v_eff = max v 0.5 in
      p /. v_eff
  | Thevenin { v_source; r_source } ->
      (* [max 0. x] spelled as a float comparison: same result, no
         polymorphic compare. *)
      let x = (v_source -. v) /. r_source in
      if 0. >= x then 0. else x
  | Square_wave { period; duty; inner } ->
      let phase = Float.rem time period in
      if phase < duty *. period then current inner ~time ~v else 0.
  | Scripted { segments; total } ->
      let phase = ref (Float.rem time total) in
      let chosen = ref None_ in
      (try
         Array.iter
           (fun (d, h) ->
             if !phase < d then begin
               chosen := h;
               raise Exit
             end
             else phase := !phase -. d)
           segments
       with Exit -> ());
      current !chosen ~time ~v
  | Rf_ambient { seed; mean_power; flicker } ->
      let p = mean_power *. flicker_factor seed flicker time in
      let v_eff = max v 0.5 in
      p /. v_eff
  | None_ -> 0.

let constant_power_watts = function Constant_power p -> Some p | _ -> None

let thevenin_params = function
  | Thevenin { v_source; r_source } -> Some (v_source, r_source)
  | _ -> None
