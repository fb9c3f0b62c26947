module Json = Gecko_obs.Json
module Acc = Gecko_util.Stats.Acc
module M = Gecko_machine.Machine
module Schedule = Gecko_emi.Schedule

type t = {
  devices : int;
  attacked_devices : int;
  exposure_s : float;
  instructions : int;
  completions : int;
  reboots : int;
  brownouts : int;
  jit_checkpoints : int;
  jit_checkpoint_failures : int;
  rollbacks : int;
  recovery_block_runs : int;
  detections : int;
  reenables : int;
  corruptions : int;
  io_outs : int;
  app_seconds : float;
  stalled_s : float;
  sim_seconds : float;
  energy_drained_j : float;
  energy_sourced_j : float;
  progress : Acc.t;
  detect_latency : Acc.t;
}

let empty =
  {
    devices = 0;
    attacked_devices = 0;
    exposure_s = 0.;
    instructions = 0;
    completions = 0;
    reboots = 0;
    brownouts = 0;
    jit_checkpoints = 0;
    jit_checkpoint_failures = 0;
    rollbacks = 0;
    recovery_block_runs = 0;
    detections = 0;
    reenables = 0;
    corruptions = 0;
    io_outs = 0;
    app_seconds = 0.;
    stalled_s = 0.;
    sim_seconds = 0.;
    energy_drained_j = 0.;
    energy_sourced_j = 0.;
    progress = Acc.empty;
    detect_latency = Acc.empty;
  }

let merge a b =
  {
    devices = a.devices + b.devices;
    attacked_devices = a.attacked_devices + b.attacked_devices;
    exposure_s = a.exposure_s +. b.exposure_s;
    instructions = a.instructions + b.instructions;
    completions = a.completions + b.completions;
    reboots = a.reboots + b.reboots;
    brownouts = a.brownouts + b.brownouts;
    jit_checkpoints = a.jit_checkpoints + b.jit_checkpoints;
    jit_checkpoint_failures = a.jit_checkpoint_failures + b.jit_checkpoint_failures;
    rollbacks = a.rollbacks + b.rollbacks;
    recovery_block_runs = a.recovery_block_runs + b.recovery_block_runs;
    detections = a.detections + b.detections;
    reenables = a.reenables + b.reenables;
    corruptions = a.corruptions + b.corruptions;
    io_outs = a.io_outs + b.io_outs;
    app_seconds = a.app_seconds +. b.app_seconds;
    stalled_s = a.stalled_s +. b.stalled_s;
    sim_seconds = a.sim_seconds +. b.sim_seconds;
    energy_drained_j = a.energy_drained_j +. b.energy_drained_j;
    energy_sourced_j = a.energy_sourced_j +. b.energy_sourced_j;
    progress = Acc.merge a.progress b.progress;
    detect_latency = Acc.merge a.detect_latency b.detect_latency;
  }

(* Detection latencies: match each attack window with the first detection
   event inside it (events and windows are both time-ordered, each
   detection consumed at most once). *)
let detection_latencies ~(schedule : Schedule.t) (o : M.outcome) =
  let detections =
    List.filter_map
      (fun (e : M.event) ->
        match e.M.ev_kind with M.Ev_detection -> Some e.M.ev_time | _ -> None)
      o.M.events
  in
  let rec go acc dets (ws : Schedule.window list) =
    match ws with
    | [] -> List.rev acc
    | w :: ws' -> (
        match
          List.find_opt
            (fun t -> t >= w.Schedule.t_start && t <= w.Schedule.t_end)
            dets
        with
        | Some t ->
            go
              ((t -. w.Schedule.t_start) :: acc)
              (List.filter (fun t' -> t' > t) dets)
              ws'
        | None -> go acc dets ws')
  in
  go [] detections (Schedule.windows schedule)

let of_device ~(schedule : Schedule.t) ~energy_drained_j ~energy_sourced_j
    (o : M.outcome) =
  let exposure = Field.exposure_seconds schedule in
  let finite f = if Float.is_nan f then 0. else f in
  {
    devices = 1;
    attacked_devices = (if Schedule.windows schedule = [] then 0 else 1);
    exposure_s = exposure;
    instructions = o.M.instructions;
    completions = o.M.completions;
    reboots = o.M.reboots;
    brownouts = o.M.brownouts;
    jit_checkpoints = o.M.jit_checkpoints;
    jit_checkpoint_failures = o.M.jit_checkpoint_failures;
    rollbacks = o.M.rollbacks;
    recovery_block_runs = o.M.recovery_block_runs;
    detections = o.M.detections;
    reenables = o.M.reenables;
    corruptions = o.M.corruptions;
    io_outs = o.M.io_out_count;
    app_seconds = o.M.app_seconds;
    stalled_s = Float.max 0. (o.M.sim_time -. o.M.app_seconds);
    sim_seconds = o.M.sim_time;
    energy_drained_j = finite energy_drained_j;
    energy_sourced_j = finite energy_sourced_j;
    progress = Acc.add Acc.empty (M.forward_progress o);
    detect_latency =
      List.fold_left Acc.add Acc.empty (detection_latencies ~schedule o);
  }

let checkpoint_failure_rate t =
  if t.jit_checkpoints = 0 then 0.
  else float_of_int t.jit_checkpoint_failures /. float_of_int t.jit_checkpoints

(* --- exact JSON round-trip (campaign snapshots) ----------------------- *)

let acc_to_json (a : Acc.t) =
  if Acc.is_empty a then Json.Assoc [ ("n", Json.Int 0) ]
  else
    Json.Assoc
      [
        ("n", Json.Int a.Acc.n);
        ("sum", Json.Float a.Acc.sum);
        ("sumsq", Json.Float a.Acc.sumsq);
        ("min", Json.Float a.Acc.min_v);
        ("max", Json.Float a.Acc.max_v);
      ]

let acc_of_json j =
  let bad msg = invalid_arg ("Fleet.Agg.acc_of_json: " ^ msg) in
  match Json.member "n" j with
  | Some (Json.Int 0) -> Acc.empty
  | Some (Json.Int n) ->
      let flt k =
        match Option.bind (Json.member k j) Json.to_float_opt with
        | Some f -> f
        | None -> bad ("missing " ^ k)
      in
      {
        Acc.n;
        sum = flt "sum";
        sumsq = flt "sumsq";
        min_v = flt "min";
        max_v = flt "max";
      }
  | _ -> bad "missing n"

let to_json t =
  Json.Assoc
    [
      ("devices", Json.Int t.devices);
      ("attacked_devices", Json.Int t.attacked_devices);
      ("exposure_s", Json.Float t.exposure_s);
      ("instructions", Json.Int t.instructions);
      ("completions", Json.Int t.completions);
      ("reboots", Json.Int t.reboots);
      ("brownouts", Json.Int t.brownouts);
      ("jit_checkpoints", Json.Int t.jit_checkpoints);
      ("jit_checkpoint_failures", Json.Int t.jit_checkpoint_failures);
      ("rollbacks", Json.Int t.rollbacks);
      ("recovery_block_runs", Json.Int t.recovery_block_runs);
      ("detections", Json.Int t.detections);
      ("reenables", Json.Int t.reenables);
      ("corruptions", Json.Int t.corruptions);
      ("io_outs", Json.Int t.io_outs);
      ("app_seconds", Json.Float t.app_seconds);
      ("stalled_s", Json.Float t.stalled_s);
      ("sim_seconds", Json.Float t.sim_seconds);
      ("energy_drained_j", Json.Float t.energy_drained_j);
      ("energy_sourced_j", Json.Float t.energy_sourced_j);
      ("progress", acc_to_json t.progress);
      ("detect_latency", acc_to_json t.detect_latency);
    ]

let of_json j =
  let bad msg = invalid_arg ("Fleet.Agg.of_json: " ^ msg) in
  let field k =
    match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
  in
  let int k = match field k with Json.Int i -> i | _ -> bad (k ^ ": expected int") in
  let flt k =
    match Json.to_float_opt (field k) with
    | Some f -> f
    | None -> bad (k ^ ": expected number")
  in
  {
    devices = int "devices";
    attacked_devices = int "attacked_devices";
    exposure_s = flt "exposure_s";
    instructions = int "instructions";
    completions = int "completions";
    reboots = int "reboots";
    brownouts = int "brownouts";
    jit_checkpoints = int "jit_checkpoints";
    jit_checkpoint_failures = int "jit_checkpoint_failures";
    rollbacks = int "rollbacks";
    recovery_block_runs = int "recovery_block_runs";
    detections = int "detections";
    reenables = int "reenables";
    corruptions = int "corruptions";
    io_outs = int "io_outs";
    app_seconds = flt "app_seconds";
    stalled_s = flt "stalled_s";
    sim_seconds = flt "sim_seconds";
    energy_drained_j = flt "energy_drained_j";
    energy_sourced_j = flt "energy_sourced_j";
    progress = acc_of_json (field "progress");
    detect_latency = acc_of_json (field "detect_latency");
  }
