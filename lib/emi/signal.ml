type t = { freq_hz : float; power_dbm : float }

let make ~freq_mhz ~power_dbm =
  if freq_mhz <= 0. then invalid_arg "Signal.make: frequency must be positive";
  { freq_hz = freq_mhz *. 1e6; power_dbm }

let freq_mhz t = t.freq_hz /. 1e6
let power_watts t = 10. ** (t.power_dbm /. 10.) /. 1000.

let pp ppf t =
  Format.fprintf ppf "%.1f MHz @ %.1f dBm" (freq_mhz t) t.power_dbm
