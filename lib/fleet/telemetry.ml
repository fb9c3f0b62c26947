module Json = Gecko_obs.Json

(* --- outliers ---------------------------------------------------------- *)

type outlier = {
  o_device : int;
  o_score : float;
  o_seed : int;
  o_workload : string;
  o_scheme : string;
  o_board : string;
  o_x : float;
  o_y : float;
  o_corruptions : int;
  o_ckpt_failures : int;
  o_brownouts : int;
  o_detections : int;
  o_latency_worst : float;
  o_flight : Json.t option;
}

type t = { top_k : int; outliers : outlier list }

let empty ~top_k = { top_k = max 0 top_k; outliers = [] }

(* Total order: score descending, then device id ascending — merge
   results never depend on concatenation order. *)
let outlier_order a b =
  match compare b.o_score a.o_score with
  | 0 -> compare a.o_device b.o_device
  | c -> c

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let merge a b =
  let top_k = max a.top_k b.top_k in
  {
    top_k;
    outliers = take top_k (List.sort outlier_order (a.outliers @ b.outliers));
  }

(* Corruption (silent wrong answers) dominates checkpoint failures
   dominates brownouts; a second of detection latency sits between a
   checkpoint failure and a corruption.  Latencies are >= 0, so the
   accumulator's maximum (0 when empty) is the worst of them. *)
let of_device ~top_k ~id ~seed ~workload ~scheme ~board ~x ~y ~flight
    (a : Agg.t) =
  let worst = Gecko_util.Stats.Acc.maximum a.Agg.detect_latency in
  let score =
    (1000. *. float_of_int a.Agg.corruptions)
    +. (10. *. float_of_int a.Agg.jit_checkpoint_failures)
    +. (0.1 *. float_of_int a.Agg.brownouts)
    +. (100. *. worst)
  in
  {
    top_k = max 0 top_k;
    outliers =
      (if score > 0. && top_k > 0 then
         [
           {
             o_device = id;
             o_score = score;
             o_seed = seed;
             o_workload = workload;
             o_scheme = scheme;
             o_board = board;
             o_x = x;
             o_y = y;
             o_corruptions = a.Agg.corruptions;
             o_ckpt_failures = a.Agg.jit_checkpoint_failures;
             o_brownouts = a.Agg.brownouts;
             o_detections = a.Agg.detections;
             o_latency_worst = worst;
             o_flight = flight;
           };
         ]
       else []);
  }

(* --- JSON -------------------------------------------------------------- *)

let outlier_to_json o =
  Json.Assoc
    ([
       ("device", Json.Int o.o_device);
       ("score", Json.Float o.o_score);
       ("seed", Json.Int o.o_seed);
       ("workload", Json.String o.o_workload);
       ("scheme", Json.String o.o_scheme);
       ("board", Json.String o.o_board);
       ("x", Json.Float o.o_x);
       ("y", Json.Float o.o_y);
       ("corruptions", Json.Int o.o_corruptions);
       ("ckpt_failures", Json.Int o.o_ckpt_failures);
       ("brownouts", Json.Int o.o_brownouts);
       ("detections", Json.Int o.o_detections);
       ("latency_worst", Json.Float o.o_latency_worst);
     ]
    @ match o.o_flight with None -> [] | Some f -> [ ("flight", f) ])

let outlier_of_json j =
  let bad msg = invalid_arg ("Fleet.Telemetry.of_json: outlier " ^ msg) in
  let field k =
    match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
  in
  let int_of k = match field k with Json.Int i -> i | _ -> bad (k ^ " not int") in
  let float_of k =
    match Json.to_float_opt (field k) with
    | Some f -> f
    | None -> bad (k ^ " not a number")
  in
  let string_of k =
    match field k with Json.String s -> s | _ -> bad (k ^ " not a string")
  in
  {
    o_device = int_of "device";
    o_score = float_of "score";
    o_seed = int_of "seed";
    o_workload = string_of "workload";
    o_scheme = string_of "scheme";
    o_board = string_of "board";
    o_x = float_of "x";
    o_y = float_of "y";
    o_corruptions = int_of "corruptions";
    o_ckpt_failures = int_of "ckpt_failures";
    o_brownouts = int_of "brownouts";
    o_detections = int_of "detections";
    o_latency_worst = float_of "latency_worst";
    o_flight = Json.member "flight" j;
  }

let to_json t =
  Json.Assoc
    [
      ("top_k", Json.Int t.top_k);
      ("outliers", Json.List (List.map outlier_to_json t.outliers));
    ]

let of_json j =
  let bad msg = invalid_arg ("Fleet.Telemetry.of_json: " ^ msg) in
  {
    top_k =
      (match Json.member "top_k" j with
      | Some (Json.Int i) -> i
      | _ -> bad "missing top_k");
    outliers =
      (match Json.member "outliers" j with
      | Some (Json.List xs) -> List.map outlier_of_json xs
      | _ -> bad "missing outliers");
  }

(* --- campaign configuration ------------------------------------------- *)

type config = {
  tel_path : string option;
  tel_progress : bool;
  tel_top_k : int;
}

let default_config = { tel_path = None; tel_progress = false; tel_top_k = 8 }
let stream_schema = "gecko.fleet-telemetry/2"
