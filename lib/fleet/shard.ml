module Json = Gecko_obs.Json
module Metrics = Gecko_obs.Metrics
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Workbench = Gecko_harness.Workbench
module Schedule = Gecko_emi.Schedule
module Link = Gecko_isa.Link
module Instr = Gecko_isa.Instr

type device = {
  id : int;
  workload : string;
  scheme : Gecko_core.Scheme.t;
  board : Spec.board_kind;
  x : float;
  y : float;
  seed : int;
}

(* Boards are immutable records (device constants + harvester shape), so
   the two catalogue entries are built once and shared by every device
   of a campaign — the decode cache then sees one physical image/device
   pair per (workload, scheme, board) key. *)
let attack_rig_board = Board.attack_rig ()
let bench_board = Board.default ()

let board = function
  | Spec.Attack_rig -> attack_rig_board
  | Spec.Bench -> bench_board

let device_telemetry ~top_k (d : device) ~flight agg =
  Telemetry.of_device ~top_k ~id:d.id ~seed:d.seed ~workload:d.workload
    ~scheme:(Spec.scheme_slug d.scheme) ~board:(Spec.board_slug d.board)
    ~x:d.x ~y:d.y ~flight agg

let schedule_of field (d : device) = Field.schedule_at field ~x:d.x ~y:d.y

(* A fresh flight recorder when telemetry is armed. *)
let recorder armed = if armed then Some (Gecko_obs.Flight.create ()) else None

(* The run of [scheme]/[workload] on a [kind] board from power-on.
   Devices and prefix references differ only in [schedule], [seed] and
   the pure observers. *)
let power_on ?trace ?flight ~(spec : Spec.t) ~schedule ~seed scheme workload
    kind =
  let board = board kind in
  let image, meta, dec = Workbench.decoded_workload scheme workload ~board in
  M.Step.start ~board ~image ~meta
    {
      M.default_options with
      schedule;
      limit = M.Sim_time spec.Spec.duration;
      max_sim_time = spec.Spec.duration +. 1.;
      restart_on_halt = true;
      record_events = true;
      seed;
      metrics = Some (Metrics.create ());
      trace;
      flight;
      decoded = Some dec;
    }

(* --- the prefix table -------------------------------------------------- *)

(* Until its first attack window starts, a device's run is the unattacked
   run of its (scheme, workload, board).  The seed reaches a run only
   through [In], so it joins the key just for images that read input. *)
type key = Gecko_core.Scheme.t * string * Spec.board_kind * int

let reads_input (image : Link.image) =
  Array.exists
    (function Link.Op (Instr.In _) -> true | _ -> false)
    image.Link.code

let key ~seeded (d : device) : key =
  (d.scheme, d.workload, d.board, if seeded then d.seed else 0)

let first_window schedule =
  match Schedule.windows schedule with
  | w :: _ -> Some w.Schedule.t_start
  | [] -> None

(* A fork point of a reference run — a first-window start, or [None]
   for the finished run — shared read-only by the devices that start
   there and dropped by the last of them, so the table shrinks as the
   campaign runs. *)
type slot = {
  s_handle : M.Step.handle option Atomic.t;
  s_users : int Atomic.t;  (* devices yet to fork it *)
}

type prefix = {
  px_flight : bool;  (* the references carry flight recorders *)
  px_seeded : (Gecko_core.Scheme.t * string * Spec.board_kind, bool) Hashtbl.t;
      (* whether the seed joins the key: the image reads input *)
  px_slots : (key * float option, slot) Hashtbl.t;
      (* read-only once built; only the slots' atomics change *)
  px_stepped : int;  (* instructions the references stepped *)
  px_inherited : int Atomic.t;
      (* instructions the devices' forks inherited so far *)
}

let device_key px (d : device) =
  match Hashtbl.find_opt px.px_seeded (d.scheme, d.workload, d.board) with
  | Some seeded -> Some (key ~seeded d)
  | None -> None

(* One schedule-free reference per key, advanced through the fork points
   its devices need and dropped after the last one — kept whole only
   when some device has no window. *)
let build_key ~spec ~flight (((scheme, workload, board, seed) as k : key), ts) =
  let h =
    power_on ?flight:(recorder flight) ~spec ~schedule:Schedule.empty ~seed
      scheme workload board
  in
  let finished = List.mem None ts in
  let rec forks = function
    | [] -> []
    | t :: rest ->
        M.Step.advance_to h t;
        (* The last fork point of a reference no device needs finished
           takes the reference itself. *)
        let src = if rest = [] && not finished then h else M.Step.fork h in
        ((k, Some t), src) :: forks rest
  in
  let forks = forks (List.sort Float.compare (List.filter_map Fun.id ts)) in
  let final =
    if finished then begin
      while M.Step.step_block h do
        ()
      done;
      [ ((k, None), h) ]
    end
    else []
  in
  (forks @ final, M.Step.instructions h)

let prefix ?telemetry ~spec ~field devices =
  let flight = Option.is_some telemetry in
  let seeded = Hashtbl.create 16 in
  let users = Hashtbl.create 64 and points = Hashtbl.create 16 in
  List.iter
    (fun (d : device) ->
      let triple = (d.scheme, d.workload, d.board) in
      if not (Hashtbl.mem seeded triple) then begin
        let image, _, _ =
          Workbench.decoded_workload d.scheme d.workload ~board:(board d.board)
        in
        Hashtbl.replace seeded triple (reads_input image)
      end;
      let k = key ~seeded:(Hashtbl.find seeded triple) d in
      match first_window (schedule_of field d) with
      | Some t when t <= 0. ->
          (* Attacked from power-on: no prefix to share, and a fork held
             for it would only cost memory. *)
          ()
      | t -> (
          let p = (k, t) in
          match Hashtbl.find_opt users p with
          | Some n -> Hashtbl.replace users p (n + 1)
          | None ->
              Hashtbl.replace users p 1;
              Hashtbl.replace points k
                (t :: Option.value ~default:[] (Hashtbl.find_opt points k))))
    devices;
  let built =
    Workbench.pmap (build_key ~spec ~flight)
      (Hashtbl.fold (fun k ts l -> (k, ts) :: l) points [])
  in
  let slots = Hashtbl.create 64 and stepped = ref 0 in
  List.iter
    (fun (handles, n_stepped) ->
      stepped := !stepped + n_stepped;
      List.iter
        (fun (p, h) ->
          let n = Hashtbl.find users p in
          Hashtbl.replace slots p
            { s_handle = Atomic.make (Some h); s_users = Atomic.make n })
        handles)
    built;
  {
    px_flight = flight;
    px_seeded = seeded;
    px_slots = slots;
    px_stepped = !stepped;
    px_inherited = Atomic.make 0;
  }

let prefix_slot px ~flight (d : device) schedule =
  if px.px_flight <> flight then None
  else
    match device_key px d with
    | None -> None
    | Some k -> Hashtbl.find_opt px.px_slots (k, first_window schedule)

(* A device's fork of its slot.  Each user forks before it counts itself
   off, so the last one to count off drops the handle after every fork
   of it is complete.  A slot already dropped (more runs than counted
   users) yields [None]: that run starts from power-on. *)
let prefix_start px ~flight d schedule =
  match prefix_slot px ~flight d schedule with
  | None -> None
  | Some s -> (
      match Atomic.get s.s_handle with
      | None -> None
      | Some src ->
          let h = M.Step.fork ~schedule src in
          if Atomic.fetch_and_add s.s_users (-1) = 1 then
            Atomic.set s.s_handle None;
          ignore (Atomic.fetch_and_add px.px_inherited (M.Step.instructions h));
          Some h)

let prefix_saved px = Atomic.get px.px_inherited - px.px_stepped

(* --- the device runner ------------------------------------------------- *)

(* One runner, two ways to get its start handle: a fork of the prefix
   table, or power-on.  Either way the run finishes on block dispatch. *)
let finish ~schedule h =
  while M.Step.step_block h do
    ()
  done;
  let o = M.Step.outcome h in
  let reg = Option.get (M.Step.metrics h) in
  let gauge name = Metrics.gauge_value (Metrics.gauge reg name) in
  let agg =
    Agg.of_device ~schedule ~energy_drained_j:(gauge "energy.drained_j")
      ~energy_sourced_j:(gauge "energy.sourced_j") o
  in
  (o, agg, reg)

(* The campaign run and [replay]'s full-forensics re-run differ only in
   the pure observers ([trace], [flight]), so a device produces
   bit-identical physics either way. *)
let run_device_full ?trace ?flight ~spec ~field (d : device) =
  let schedule = schedule_of field d in
  finish ~schedule
    (power_on ?trace ?flight ~spec ~schedule ~seed:d.seed d.scheme d.workload
       d.board)

let start ?telemetry ?prefix ~spec ~field (d : device) =
  let schedule = schedule_of field d in
  let flight = Option.is_some telemetry in
  match Option.bind prefix (fun px -> prefix_start px ~flight d schedule) with
  | Some h -> h
  | None ->
      power_on ?flight:(recorder flight) ~spec ~schedule ~seed:d.seed
        d.scheme d.workload d.board

let run_device ?telemetry ?prefix ~spec ~field (d : device) =
  let h = start ?telemetry ?prefix ~spec ~field d in
  let _, agg, reg = finish ~schedule:(schedule_of field d) h in
  match telemetry with
  | None -> (agg, reg, None)
  | Some (c : Telemetry.config) ->
      (* The dump rides along only if the device scores as an outlier;
         [Telemetry.of_device] drops it otherwise. *)
      let dump = Option.map Gecko_obs.Flight.to_json (M.Step.flight h) in
      ( agg,
        reg,
        Some (device_telemetry ~top_k:c.Telemetry.tel_top_k d ~flight:dump agg)
      )

(* --- shard results ----------------------------------------------------- *)

type t = {
  sr_id : int;
  sr_agg : Agg.t;
  sr_per_scheme : (string * Agg.t) list;
  sr_per_workload : (string * Agg.t) list;
  sr_metrics : Json.t;  (* Metrics.to_persist of the shard registry *)
  sr_telemetry : Telemetry.t option;  (* when the campaign ran with telemetry *)
}

let to_json sr =
  Json.Assoc
    ([
      ("shard", Json.Int sr.sr_id);
      ("agg", Agg.to_json sr.sr_agg);
      ( "per_scheme",
        Json.Assoc (List.map (fun (k, a) -> (k, Agg.to_json a)) sr.sr_per_scheme)
      );
      ( "per_workload",
        Json.Assoc
          (List.map (fun (k, a) -> (k, Agg.to_json a)) sr.sr_per_workload) );
      ("metrics", sr.sr_metrics);
    ]
    @
    match sr.sr_telemetry with
    | None -> []
    | Some t -> [ ("telemetry", Telemetry.to_json t) ])

let of_json j =
  let bad msg = invalid_arg ("Fleet.Campaign.shard_of_json: " ^ msg) in
  let field k =
    match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
  in
  let groups k =
    match field k with
    | Json.Assoc kvs -> List.map (fun (n, v) -> (n, Agg.of_json v)) kvs
    | _ -> bad (k ^ " is not an object")
  in
  {
    sr_id = (match field "shard" with Json.Int i -> i | _ -> bad "shard id");
    sr_agg = Agg.of_json (field "agg");
    sr_per_scheme = groups "per_scheme";
    sr_per_workload = groups "per_workload";
    sr_metrics = field "metrics";
    sr_telemetry = Option.map Telemetry.of_json (Json.member "telemetry" j);
  }

(* --- streaming accumulator --------------------------------------------- *)

(* Devices fold in as they finish, in ascending id order, so the
   non-associative float adds in [Agg.merge] and the metrics histograms
   happen in one canonical order and the shard result is byte-identical
   across pool widths and resumes.
   Memory is O(#scheme-groups + #workload-groups + top_k), independent
   of the device count: no per-device list survives the fold. *)
type acc = {
  acc_id : int;
  acc_reg : Metrics.registry;
  mutable acc_agg : Agg.t;
  acc_scheme : (string, Agg.t) Hashtbl.t;
  acc_workload : (string, Agg.t) Hashtbl.t;
  mutable acc_tel : Telemetry.t option;
}

let acc_create ?telemetry sid =
  {
    acc_id = sid;
    acc_reg = Metrics.create ();
    acc_agg = Agg.empty;
    acc_scheme = Hashtbl.create 4;
    acc_workload = Hashtbl.create 4;
    acc_tel =
      Option.map
        (fun (c : Telemetry.config) ->
          Telemetry.empty ~top_k:c.Telemetry.tel_top_k)
        telemetry;
  }

let group_add tbl k a =
  let prev = Option.value ~default:Agg.empty (Hashtbl.find_opt tbl k) in
  Hashtbl.replace tbl k (Agg.merge prev a)

let acc_add acc (d : device) (a, dev_reg, dev_tel) =
  Metrics.merge_into acc.acc_reg dev_reg;
  acc.acc_agg <- Agg.merge acc.acc_agg a;
  (match (acc.acc_tel, dev_tel) with
  | Some cur, Some t -> acc.acc_tel <- Some (Telemetry.merge cur t)
  | _ -> ());
  group_add acc.acc_scheme (Spec.scheme_slug d.scheme) a;
  group_add acc.acc_workload d.workload a

let sorted_groups tbl =
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let acc_finish acc =
  {
    sr_id = acc.acc_id;
    sr_agg = acc.acc_agg;
    sr_per_scheme = sorted_groups acc.acc_scheme;
    sr_per_workload = sorted_groups acc.acc_workload;
    sr_metrics = Metrics.to_persist acc.acc_reg;
    sr_telemetry = acc.acc_tel;
  }
