module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Schedule = Gecko_emi.Schedule
module Attack = Gecko_emi.Attack
module Signal = Gecko_emi.Signal
module Coupling = Gecko_emi.Coupling
module Device = Gecko_devices.Device
module Pool = Gecko_util.Pool
module Rng = Gecko_util.Rng

let resonant_attack ?(power_dbm = 20.) ?(distance_m = 0.1) (board : Board.t) =
  let profile = Device.coupling board.Board.device board.Board.monitor_choice in
  let f0 = Coupling.peak_frequency_mhz profile in
  Attack.remote ~distance_m (Signal.make ~freq_mhz:f0 ~power_dbm)

let checkpoint_times events =
  List.filter_map
    (fun e ->
      match e.M.ev_kind with
      | M.Ev_checkpoint | M.Ev_backup_signal _ -> Some e.M.ev_time
      | _ -> None)
    events

let checkpoint_schedule ~attack ~width times =
  Schedule.normalize
    (List.map
       (fun t ->
         Schedule.window
           ~t_start:(t -. (width /. 2.))
           ~t_end:(t +. (width /. 2.))
           attack)
       times)

type counters = {
  c_corruptions : int;
  c_ckpt_failures : int;
  c_brownouts : int;
  c_detections : int;
  c_completions : int;
}

type failure = { f_schedule : Schedule.t; f_detail : string }

type result = {
  evals : int;
  best_score : float;
  best_schedule : Schedule.t;
  best : counters;
  failures : failure list;
}

let counters_of (o : M.outcome) =
  {
    c_corruptions = o.M.corruptions;
    c_ckpt_failures = o.M.jit_checkpoint_failures;
    c_brownouts = o.M.brownouts;
    c_detections = o.M.detections;
    c_completions = o.M.completions;
  }

let score c ~oracle_failed =
  (1000. *. float_of_int c.c_corruptions)
  +. (10. *. float_of_int c.c_ckpt_failures)
  +. float_of_int c.c_brownouts
  +. (if oracle_failed then 1.0e6 else 0.)

(* One seeded mutation.  Every combinator normalizes, so any sequence of
   mutations stays a valid schedule. *)
let mutate rng ~attack ~times ~horizon t =
  let random_time () =
    match times with
    | [] -> Rng.float rng horizon
    | _ ->
        if Rng.bool rng then Rng.choose rng (Array.of_list times)
        else Rng.float rng horizon
  in
  let fresh_window () =
    let c = random_time () in
    let w = 0.0005 +. Rng.float rng 0.01 in
    Schedule.window ~t_start:(c -. (w /. 2.)) ~t_end:(c +. (w /. 2.)) attack
  in
  let n = Schedule.n_windows t in
  if n = 0 then Schedule.add_window t (fresh_window ())
  else
    let i = Rng.int rng n in
    match Rng.int rng 7 with
    | 0 -> Schedule.shift_window t i (Rng.gaussian rng ~mu:0. ~sigma:0.005)
    | 1 -> Schedule.move_window t i ~t_start:(random_time ())
    | 2 -> Schedule.scale_window t i (0.25 +. Rng.float rng 2.25)
    | 3 -> Schedule.split_window t i (0.2 +. Rng.float rng 0.6)
    | 4 -> Schedule.merge_with_next t i
    | 5 -> Schedule.drop_window t i
    | _ -> Schedule.add_window t (fresh_window ())

let fuzz ?jobs ?(budget = 64) ?(seed = 1) ?opts ~board ~image ~meta () =
  let opts = match opts with Some o -> o | None -> Explore.default_opts in
  let opts = Inject.with_decode ~board ~image opts in
  let golden_nvm, golden_io =
    Explore.golden ~max_sim_time:opts.M.max_sim_time ?decoded:opts.M.decoded
      ~board ~image ~meta ()
  in
  let attack = resonant_attack board in
  (* Recon: run under a continuous tone with events recorded to learn when
     the victim (spuriously) checkpoints — the attacker's EM-probe step. *)
  let recon_opts =
    {
      opts with
      M.schedule = Schedule.always attack;
      record_events = true;
      trace = None;
      metrics = None;
    }
  in
  let recon = M.run ~board ~image ~meta recon_opts in
  let times = checkpoint_times recon.M.events in
  let horizon = Float.max 0.01 recon.M.sim_time in
  let eval sched =
    let o, nvm =
      M.run_with_nvm ~board ~image ~meta
        { opts with M.schedule = sched; trace = None; metrics = None }
    in
    let c = counters_of o in
    (* Only a completed run can violate crash consistency; a run the
       attack starved of progress scores on counters alone. *)
    let oracle_failed, detail =
      if o.M.completions < 1 then (false, "")
      else
        match Explore.oracle ~golden_nvm ~golden_io o ~nvm with
        | Ok () -> (false, "")
        | Error d -> (true, d)
    in
    (score c ~oracle_failed, c, oracle_failed, detail)
  in
  let rng = Rng.create seed in
  let seeds =
    [
      Schedule.empty;
      Schedule.always attack;
      checkpoint_schedule ~attack ~width:0.002 times;
      checkpoint_schedule ~attack ~width:0.01 times;
    ]
  in
  let map_eval scheds =
    match jobs with
    | Some j when j > 1 -> Pool.map (Pool.shared ~jobs:j) eval scheds
    | Some _ | None -> List.map eval scheds
  in
  let evals = ref 0 in
  let failures = ref [] in
  let scored = ref [] in
  let run_batch batch =
    let batch =
      if !evals + List.length batch > budget then
        List.filteri (fun i _ -> !evals + i < budget) batch
      else batch
    in
    let rs = map_eval batch in
    evals := !evals + List.length batch;
    List.iter2
      (fun sched (sc, c, failed, detail) ->
        if failed then
          failures := { f_schedule = sched; f_detail = detail } :: !failures;
        scored := (sc, sched, c) :: !scored)
      batch rs
  in
  run_batch seeds;
  let keep = 4 in
  while !evals < budget do
    let top =
      List.sort (fun (a, _, _) (b, _, _) -> compare b a) !scored
      |> List.filteri (fun i _ -> i < keep)
    in
    let batch =
      List.concat_map
        (fun (_, sched, _) ->
          [ mutate rng ~attack ~times ~horizon sched;
            mutate rng ~attack ~times ~horizon sched ])
        top
    in
    run_batch batch
  done;
  let best_score, best_schedule, best =
    match List.sort (fun (a, _, _) (b, _, _) -> compare b a) !scored with
    | x :: _ -> x
    | [] -> (0., Schedule.empty, counters_of recon)
  in
  {
    evals = !evals;
    best_score;
    best_schedule;
    best;
    failures = List.rev !failures;
  }
