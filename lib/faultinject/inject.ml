module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Decode = Gecko_machine.Decode

type kind = K_instr | K_event of string | K_ckpt_word | K_rollback_step

let kind_of : M.inject_site -> kind = function
  | M.S_instr -> K_instr
  | M.S_event k -> K_event (M.event_name k)
  | M.S_ckpt_word _ -> K_ckpt_word
  | M.S_rollback_step _ -> K_rollback_step

let kind_name = function
  | K_instr -> "instr"
  | K_event n -> "event:" ^ n
  | K_ckpt_word -> "ckpt_word"
  | K_rollback_step -> "rollback_step"

type site = {
  s_ordinal : int;
  s_kind : kind;
  s_time : float;
  s_instr : int;
  s_step : int;
}

let with_decode ~(board : Board.t) ~image opts =
  match opts.M.decoded with
  | Some d when d.Decode.image == image -> opts
  | Some _ | None ->
      let device = board.Board.device in
      { opts with M.decoded = Some (Decode.decode ~device image) }

let census ~board ~image ~meta opts =
  let sites = ref [] in
  let n = ref 0 in
  let steps = ref 0 in
  let h = M.Step.start ~board ~image ~meta opts in
  M.Step.set_injector h
    (Some
       (fun s ->
         sites :=
           {
             s_ordinal = !n;
             s_kind = kind_of s;
             s_time = M.Step.time h;
             s_instr = M.Step.instructions h;
             s_step = !steps;
           }
           :: !sites;
         incr n;
         false));
  while M.Step.step h do incr steps done;
  let o = M.Step.outcome h in
  (Array.of_list (List.rev !sites), o, M.Step.nvm_data h)

(* The one replay path.  [h] stands at a step boundary after [consulted]
   injector consultations; step it on the checked path, firing at the
   ordinals in [fires], until the last of them has been consulted.  From
   there on no consultation can fire, so the injector comes off and the
   run finishes on block dispatch. *)
let drive h ~consulted ~fires =
  let module IS = Set.Make (Int) in
  let fires = IS.of_list fires in
  let last = Option.value ~default:(-1) (IS.max_elt_opt fires) in
  let n = ref consulted in
  M.Step.set_injector h
    (Some
       (fun _ ->
         let i = !n in
         incr n;
         IS.mem i fires));
  while !n <= last && M.Step.step h do () done;
  M.Step.set_injector h None;
  while M.Step.step_block h do () done;
  (M.Step.outcome h, M.Step.nvm_data h)

let run_with_fires ~board ~image ~meta opts ~fires =
  drive (M.Step.start ~board ~image ~meta opts) ~consulted:0 ~fires

type snapshots = {
  sites : site array;
  every : int;  (* step boundaries between two forks *)
  forks : (int * M.Step.handle) array;
      (* [forks.(i)]: consultations so far and the run forked at step
         boundary [i * every] *)
}

let snapshots ~board ~image ~meta opts sites =
  (* A fork copies the observers, so a caller's registry or recorder
     would see the uninjected pass alone and every replay would record
     into a discarded copy: refuse them rather than drop data silently. *)
  if Option.is_some opts.M.metrics || Option.is_some opts.M.flight then
    invalid_arg
      "Inject.snapshots: replays fork, so opts must carry no metrics \
       registry or flight recorder";
  let n_sites = Array.length sites in
  let last_step = if n_sites = 0 then 0 else sites.(n_sites - 1).s_step in
  let every =
    max 1 (int_of_float (Float.ceil (Float.sqrt (float_of_int (last_step + 1)))))
  in
  let h = M.Step.start ~board ~image ~meta opts in
  let n = ref 0 in
  M.Step.set_injector h (Some (fun _ -> incr n; false));
  let forks = ref [ (0, M.Step.fork h) ] in
  let k = ref 0 in
  while ((!k / every) + 1) * every <= last_step && M.Step.step h do
    incr k;
    if !k mod every = 0 then forks := (!n, M.Step.fork h) :: !forks
  done;
  { sites; every; forks = Array.of_list (List.rev !forks) }

let replay s ~fires =
  (* A first fire past the census never fires, so any fork will do. *)
  let first = List.fold_left min max_int fires in
  let step =
    if first < Array.length s.sites then s.sites.(first).s_step else max_int
  in
  let i = min (step / s.every) (Array.length s.forks - 1) in
  let consulted, h = s.forks.(i) in
  drive (M.Step.fork h) ~consulted ~fires
