module Json = Gecko_obs.Json
module Metrics = Gecko_obs.Metrics
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Workbench = Gecko_harness.Workbench

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

let device_telemetry (c : Telemetry.config) (d : device) ~latencies ~flight agg
    =
  Telemetry.of_device ~weights:c.Telemetry.tel_weights
    ~top_k:c.Telemetry.tel_top_k ~id:d.id ~seed:d.seed ~workload:d.workload
    ~scheme:(Spec.scheme_slug d.scheme) ~board:(Spec.board_slug d.board)
    ~x:d.x ~y:d.y ~latencies ~flight agg

(* The campaign run and [replay]'s full-forensics re-run differ only in
   the pure observers ([trace], [flight]), so a device produces
   bit-identical physics either way. *)
let run_device_full ?trace ?flight ~(spec : Spec.t) ~field (d : device) =
  let schedule = Field.schedule_at field ~x:d.x ~y:d.y in
  let board =
    match d.board with
    | Spec.Attack_rig -> attack_rig_board
    | Spec.Bench -> bench_board
  in
  let image, meta, dec = Workbench.decoded_workload d.scheme d.workload ~board in
  let reg = Metrics.create () in
  let o =
    M.run ~board ~image ~meta
      {
        M.default_options with
        schedule;
        limit = M.Sim_time spec.Spec.duration;
        max_sim_time = spec.Spec.duration +. 1.;
        restart_on_halt = true;
        record_events = true;
        seed = d.seed;
        metrics = Some reg;
        trace;
        flight;
        decoded = Some dec;
      }
  in
  let gauge name = Metrics.gauge_value (Metrics.gauge reg name) in
  let agg =
    Agg.of_device ~schedule ~energy_drained_j:(gauge "energy.drained_j")
      ~energy_sourced_j:(gauge "energy.sourced_j") o
  in
  let latencies = Agg.detection_latencies ~schedule o in
  (o, agg, reg, latencies)

let run_device ?telemetry ~spec ~field (d : device) =
  match telemetry with
  | None ->
      let _, agg, reg, _ = run_device_full ~spec ~field d in
      (agg, reg, None)
  | Some (c : Telemetry.config) ->
      let flight =
        Gecko_obs.Flight.create ~capacity:c.Telemetry.tel_flight_capacity ()
      in
      let _, agg, reg, latencies = run_device_full ~flight ~spec ~field d in
      (* The dump rides along only if the device scores as an outlier;
         [Telemetry.of_device] drops it otherwise. *)
      let dump = Some (Gecko_obs.Flight.to_json flight) in
      (agg, reg, Some (device_telemetry c d ~latencies ~flight:dump agg))

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
