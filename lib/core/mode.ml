(* Pipeline soundness/speculation mode.

   - [Legacy]: the seed's optimistic compiler (non-strict, intraproc
     alias analysis, no slot/io gates).  Unsound under dynamic
     addressing; kept only as the soundness-overhead measurement
     baseline.
   - [Speculative] (the default, and the only sound mode): region
     formation cuts every syntactic may-alias hazard (regions stay
     idempotent), checkpoint pruning reuses slots optimistically, and
     every reuse whose slot a store overwrites inside the reuser's crash
     window is force-kept at compile time, so the emitted image needs
     no runtime guard. *)

type t = Legacy | Speculative

let default = Speculative

let to_string = function
  | Legacy -> "legacy"
  | Speculative -> "speculative"

let of_string s =
  match String.lowercase_ascii s with
  | "legacy" -> Some Legacy
  | "speculative" | "spec" -> Some Speculative
  | _ -> None

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b
