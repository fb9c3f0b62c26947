(* Pipeline soundness/speculation mode.  One axis supersedes the old
   bare [?sound] flag:

   - [Legacy]: the seed's optimistic compiler (non-strict, intraproc
     alias analysis, no slot/io gates).  Unsound under dynamic
     addressing; kept only as the soundness-overhead measurement
     baseline.
   - [Sound]: the syntactic may-alias sound pipeline (the default;
     byte-identical to the former [~sound:true]).
   - [Speculative]: region formation cuts exactly like [Sound] (regions
     stay idempotent), but checkpoint pruning reuses slots
     optimistically, without the sound crash-window survival proof;
     every owned checkpoint store whose window clobber cannot be
     proven harmless is emitted with a runtime speculation guard (an
     NVM undo-log append) so rollback can restore the overwritten
     slot words before running the register restores. *)

type t = Legacy | Sound | Speculative

let default = Sound

let to_string = function
  | Legacy -> "legacy"
  | Sound -> "sound"
  | Speculative -> "speculative"

let of_string s =
  match String.lowercase_ascii s with
  | "legacy" -> Some Legacy
  | "sound" -> Some Sound
  | "speculative" | "spec" -> Some Speculative
  | _ -> None

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b
let is_sound = function Legacy -> false | Sound | Speculative -> true
