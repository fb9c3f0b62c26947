type t = int

let count = 16

let of_int i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Reg.of_int: %d out of range" i)
  else i

let to_int r = r
let all = List.init count (fun i -> i)
let equal = Int.equal
let compare = Int.compare
let to_string r = Printf.sprintf "r%d" r
let pp ppf r = Format.pp_print_string ppf (to_string r)

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15
let sp = r15

module Set = struct
  type elt = int

  (* Bit [r] is set iff register [r] is a member. *)
  type t = int

  let empty = 0
  let is_empty s = s = 0
  let mem r s = s land (1 lsl r) <> 0
  let singleton r = 1 lsl r
  let add r s = s lor (1 lsl r)
  let remove r s = s land lnot (1 lsl r)
  let union = ( lor )
  let diff a b = a land lnot b
  let inter = ( land )
  let equal = Int.equal

  let fold f s acc =
    let acc = ref acc in
    for r = 0 to count - 1 do
      if mem r s then acc := f r !acc
    done;
    !acc

  let iter f s =
    for r = 0 to count - 1 do
      if mem r s then f r
    done

  let elements s = List.rev (fold List.cons s [])
  let of_list = List.fold_left (fun s r -> add r s) empty

  let cardinal s =
    let rec go s n = if s = 0 then n else go (s land (s - 1)) (n + 1) in
    go s 0
end
