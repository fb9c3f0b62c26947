module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Pool = Gecko_util.Pool
module Rng = Gecko_util.Rng

type failure = {
  f_fires : int list;
  f_kind : string;
  f_time : float;
  f_detail : string;
}

type report = {
  sites_total : int;
  sites_by_kind : (string * int) list;
  explored : int;
  explored_pairs : int;
  event_sites_covered : bool;
  instr_stride : int;
  failures : failure list;
  baseline_ok : bool;
}

let default_opts =
  {
    M.default_options with
    M.limit = M.Completions 1;
    max_sim_time = 30.;
    record_io = true;
    start_charged = true;
  }

let golden ?(max_sim_time = 30.) ?decoded ~board ~image ~meta () =
  let board =
    { board with Board.harvester = Gecko_energy.Harvester.constant_power 1.0 }
  in
  let opts =
    {
      default_opts with
      M.schedule = Gecko_emi.Schedule.empty;
      max_sim_time;
      decoded;
    }
  in
  let o, nvm = M.run_with_nvm ~board ~image ~meta opts in
  (* A program that cannot finish even on continuous power has no
     reference run: the input's fault, not the explorer's. *)
  if o.M.completions < 1 then
    invalid_arg
      (Printf.sprintf
         "faultinject: the golden run did not complete within %g s of \
          simulated time on continuous power"
         max_sim_time);
  (nvm, o.M.io_log)

(* [needle] must appear within [hay] in order (gaps allowed): re-execution
   after a rollback may repeat outputs but can never lose or reorder them. *)
let subsequence needle hay =
  let rec go n h =
    match (n, h) with
    | [], _ -> true
    | _, [] -> false
    | x :: n', y :: h' -> if x = y then go n' h' else go n h'
  in
  go needle hay

let oracle ~golden_nvm ~golden_io (o : M.outcome) ~nvm =
  if o.M.completions < 1 then
    Error
      (Printf.sprintf "did not complete (sim_time %.4f, %d brownouts)"
         o.M.sim_time o.M.brownouts)
  else if Array.length nvm <> Array.length golden_nvm then
    Error
      (Printf.sprintf "data segment size %d <> golden %d" (Array.length nvm)
         (Array.length golden_nvm))
  else
    let diff = ref (-1) in
    (try
       for i = 0 to Array.length nvm - 1 do
         if nvm.(i) <> golden_nvm.(i) then begin
           diff := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !diff >= 0 then
      Error
        (Printf.sprintf "NVM mismatch at word %d: got %d, golden %d" !diff
           nvm.(!diff)
           golden_nvm.(!diff))
    else if not (subsequence golden_io o.M.io_log) then
      Error "golden io_log is not a subsequence of the observed io_log"
    else Ok ()

(* Pick single-fire targets from the census: every non-instruction site
   first (events, checkpoint words, rollback steps are where the recovery
   protocol lives), then instruction boundaries at the smallest stride
   that fits the remaining budget. *)
let pick_targets (sites : Inject.site array) ~budget =
  let protocol, instrs =
    Array.to_list sites
    |> List.partition (fun s -> s.Inject.s_kind <> Inject.K_instr)
  in
  let stride_sample xs n =
    let len = List.length xs in
    if len <= n then (xs, 1)
    else
      let stride = (len + n - 1) / n in
      (List.filteri (fun i _ -> i mod stride = 0) xs, stride)
  in
  let n_proto = List.length protocol in
  if n_proto >= budget then
    let picked, _ = stride_sample protocol budget in
    (picked, false, 0)
  else
    let picked, stride = stride_sample instrs (budget - n_proto) in
    (protocol @ picked, true, stride)

let explore ?jobs ?(budget = 256) ?(pairs = 0) ?(seed = 1) ?opts ~board ~image
    ~meta () =
  let opts = match opts with Some o -> o | None -> default_opts in
  let opts = Inject.with_decode ~board ~image opts in
  let golden_nvm, golden_io =
    golden ~max_sim_time:opts.M.max_sim_time ?decoded:opts.M.decoded ~board
      ~image ~meta ()
  in
  let sites, base_outcome, base_nvm = Inject.census ~board ~image ~meta opts in
  let baseline_ok =
    match oracle ~golden_nvm ~golden_io base_outcome ~nvm:base_nvm with
    | Ok () -> true
    | Error _ -> false
  in
  let by_kind = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let k = Inject.kind_name s.Inject.s_kind in
      Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k)))
    sites;
  let sites_by_kind =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
    |> List.sort compare
  in
  let targets, event_sites_covered, instr_stride =
    pick_targets sites ~budget
  in
  let rng = Rng.create seed in
  let n_sites = Array.length sites in
  let pair_fires =
    if pairs <= 0 || n_sites < 2 then []
    else
      List.init pairs (fun _ ->
          let i = Rng.int rng n_sites in
          let j = Rng.int rng n_sites in
          let a, b = (min i j, max i j) in
          if a = b then [ a; b + 1 ] else [ a; b ])
  in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let describe fires =
    match fires with
    | [] -> ("", 0., [])
    | o :: _ ->
        if o < n_sites then
          let s = sites.(o) in
          (Inject.kind_name s.Inject.s_kind, s.Inject.s_time, fires)
        else ("instr", 0., fires)
  in
  let snaps = Inject.snapshots ~board ~image ~meta opts sites in
  let check fires =
    let o, nvm = Inject.replay snaps ~fires in
    match oracle ~golden_nvm ~golden_io o ~nvm with
    | Ok () -> None
    | Error detail ->
        let f_kind, f_time, f_fires = describe fires in
        Some { f_fires; f_kind; f_time; f_detail = detail }
  in
  let work =
    List.map (fun s -> [ s.Inject.s_ordinal ]) targets @ pair_fires
  in
  let failures =
    List.filter_map Fun.id (Pool.map (Pool.shared ~jobs) check work)
  in
  {
    sites_total = n_sites;
    sites_by_kind;
    explored = List.length targets;
    explored_pairs = List.length pair_fires;
    event_sites_covered;
    instr_stride;
    failures;
    baseline_ok;
  }
