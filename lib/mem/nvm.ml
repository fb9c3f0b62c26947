type t = int array

let create ~words () =
  if words <= 0 then invalid_arg "Nvm.create: words must be positive";
  Array.make words 0

let copy = Array.copy

let words = Array.length

(* Every access is range-checked with a descriptive message.  The check
   is inlined into each access and the raise stays out of line, so an
   in-range access costs two comparisons and no extra call: the
   simulator touches NVM on the instruction hot path.  The [t]
   annotations matter: on an unannotated ['a array] the access would
   test for a float array, and the store would go through the write
   barrier. *)
let[@inline never] out_of_range (t : t) addr =
  invalid_arg
    (Printf.sprintf "Nvm: address %d out of range [0,%d)" addr (Array.length t))

let[@inline] check (t : t) addr =
  if addr < 0 || addr >= Array.length t then out_of_range t addr

let[@inline] read (t : t) addr =
  check t addr;
  Array.unsafe_get t addr

let[@inline] write (t : t) addr v =
  check t addr;
  Array.unsafe_set t addr v

let load_program t (img : Gecko_isa.Link.image) =
  Array.fill t 0 (Array.length t) 0;
  List.iter
    (fun (space_id, init) ->
      let base = img.Gecko_isa.Link.space_base.(space_id) in
      Array.iteri (fun i v -> t.(base + i) <- v) init)
    img.Gecko_isa.Link.prog.Gecko_isa.Cfg.init_data

let snapshot = Array.copy

let restore t snap =
  if Array.length snap <> Array.length t then
    invalid_arg "Nvm.restore: size mismatch";
  Array.blit snap 0 t 0 (Array.length snap)

let diff a b =
  let n = min (Array.length a) (Array.length b) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if a.(i) <> b.(i) then out := (i, a.(i), b.(i)) :: !out
  done;
  !out
