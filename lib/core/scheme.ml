type t = Nvp | Ratchet | Gecko_noprune | Gecko

let to_string = function
  | Nvp -> "NVP"
  | Ratchet -> "Ratchet"
  | Gecko_noprune -> "GECKO w/o pruning"
  | Gecko -> "GECKO"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let all = [ Nvp; Ratchet; Gecko_noprune; Gecko ]
