module Json = Gecko_obs.Json

(* --- quantile sketch --------------------------------------------------- *)

module Sketch = struct
  (* Log-bucketed histogram over latency seconds: bucket [i] covers
     [lowest * 2^i, lowest * 2^(i+1)); values below [lowest] land in a
     dedicated underflow count.  Immutable: [add]/[merge] copy the
     (at most [nbuckets]-long) counts array, which at fleet rates is
     noise next to the device simulation itself. *)
  type t = {
    n : int;
    sum : float;
    min_v : float;  (* +inf when empty *)
    max_v : float;  (* -inf when empty *)
    underflow : int;
    counts : int array;  (* treated as immutable *)
  }

  let nbuckets = 40
  let lowest = 1e-6

  let empty =
    { n = 0; sum = 0.; min_v = infinity; max_v = neg_infinity; underflow = 0;
      counts = [||] }

  let bucket_index v =
    min (nbuckets - 1) (int_of_float (floor (log (v /. lowest) /. log 2.)))

  let add s v =
    let v = Float.max v 0. in
    let base =
      { s with n = s.n + 1; sum = s.sum +. v; min_v = Float.min s.min_v v;
        max_v = Float.max s.max_v v }
    in
    if v < lowest then { base with underflow = base.underflow + 1 }
    else begin
      let i = bucket_index v in
      let counts = Array.make (max (Array.length s.counts) (i + 1)) 0 in
      Array.blit s.counts 0 counts 0 (Array.length s.counts);
      counts.(i) <- counts.(i) + 1;
      { base with counts }
    end

  let merge a b =
    let len = max (Array.length a.counts) (Array.length b.counts) in
    let counts = Array.make len 0 in
    Array.iteri (fun i c -> counts.(i) <- c) a.counts;
    Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
    {
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      underflow = a.underflow + b.underflow;
      counts;
    }

  let count s = s.n
  let sum s = s.sum

  let quantile s q =
    if s.n = 0 then 0.
    else begin
      let target =
        let r = int_of_float (ceil (q *. float_of_int s.n)) in
        min (max r 1) s.n
      in
      let seen = ref s.underflow in
      if !seen >= target then lowest /. 2.
      else begin
        let result = ref Float.nan in
        (try
           Array.iteri
             (fun i c ->
               seen := !seen + c;
               if c > 0 && !seen >= target then begin
                 let lo = lowest *. (2. ** float_of_int i) in
                 result := sqrt (lo *. (lo *. 2.));
                 raise Exit
               end)
             s.counts
         with Exit -> ());
        if Float.is_nan !result then s.max_v else !result
      end
    end

  let persist_float f = if Float.is_finite f then Json.Float f else Json.Null

  let to_json s =
    Json.Assoc
      [
        ("n", Json.Int s.n);
        ("sum", Json.Float s.sum);
        ("min", persist_float s.min_v);
        ("max", persist_float s.max_v);
        ("underflow", Json.Int s.underflow);
        ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) s.counts)));
      ]

  let of_json j =
    let bad msg = invalid_arg ("Fleet.Telemetry.Sketch.of_json: " ^ msg) in
    let field k =
      match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
    in
    let int_of = function Json.Int i -> i | _ -> bad "expected an integer" in
    let float_of k ~empty_v =
      match field k with
      | Json.Null -> empty_v
      | v -> (
          match Json.to_float_opt v with
          | Some f -> f
          | None -> bad (k ^ " is not a number"))
    in
    {
      n = int_of (field "n");
      sum = float_of "sum" ~empty_v:0.;
      min_v = float_of "min" ~empty_v:infinity;
      max_v = float_of "max" ~empty_v:neg_infinity;
      underflow = int_of (field "underflow");
      counts =
        (match field "counts" with
        | Json.List cs -> Array.of_list (List.map int_of cs)
        | _ -> bad "counts is not a list");
    }
end

(* --- badness score ----------------------------------------------------- *)

type weights = {
  w_corruption : float;
  w_ckpt_failure : float;
  w_brownout : float;
  w_detect_latency : float;
}

let default_weights =
  { w_corruption = 1000.; w_ckpt_failure = 10.; w_brownout = 0.1;
    w_detect_latency = 100. }

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

type t = {
  devices : int;
  anomalies : int;
  corruptions : int;
  ckpt_failures : int;
  brownouts : int;
  detections : int;
  completions : int;
  latency : Sketch.t;
  top_k : int;
  outliers : outlier list;
}

let empty ~top_k =
  {
    devices = 0;
    anomalies = 0;
    corruptions = 0;
    ckpt_failures = 0;
    brownouts = 0;
    detections = 0;
    completions = 0;
    latency = Sketch.empty;
    top_k = max 0 top_k;
    outliers = [];
  }

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
    devices = a.devices + b.devices;
    anomalies = a.anomalies + b.anomalies;
    corruptions = a.corruptions + b.corruptions;
    ckpt_failures = a.ckpt_failures + b.ckpt_failures;
    brownouts = a.brownouts + b.brownouts;
    detections = a.detections + b.detections;
    completions = a.completions + b.completions;
    latency = Sketch.merge a.latency b.latency;
    top_k;
    outliers = take top_k (List.sort outlier_order (a.outliers @ b.outliers));
  }

let of_device ~weights ~top_k ~id ~seed ~workload ~scheme ~board ~x ~y
    ~latencies ~flight (a : Agg.t) =
  let worst = List.fold_left Float.max 0. latencies in
  let score =
    (weights.w_corruption *. float_of_int a.Agg.corruptions)
    +. (weights.w_ckpt_failure *. float_of_int a.Agg.jit_checkpoint_failures)
    +. (weights.w_brownout *. float_of_int a.Agg.brownouts)
    +. (weights.w_detect_latency *. worst)
  in
  let anomalous = a.Agg.corruptions > 0 || a.Agg.jit_checkpoint_failures > 0 in
  {
    devices = 1;
    anomalies = (if anomalous then 1 else 0);
    corruptions = a.Agg.corruptions;
    ckpt_failures = a.Agg.jit_checkpoint_failures;
    brownouts = a.Agg.brownouts;
    detections = a.Agg.detections;
    completions = a.Agg.completions;
    latency = List.fold_left Sketch.add Sketch.empty latencies;
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
      ("devices", Json.Int t.devices);
      ("anomalies", Json.Int t.anomalies);
      ("corruptions", Json.Int t.corruptions);
      ("ckpt_failures", Json.Int t.ckpt_failures);
      ("brownouts", Json.Int t.brownouts);
      ("detections", Json.Int t.detections);
      ("completions", Json.Int t.completions);
      ("latency", Sketch.to_json t.latency);
      ("top_k", Json.Int t.top_k);
      ("outliers", Json.List (List.map outlier_to_json t.outliers));
    ]

let of_json j =
  let bad msg = invalid_arg ("Fleet.Telemetry.of_json: " ^ msg) in
  let field k =
    match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
  in
  let int_of k = match field k with Json.Int i -> i | _ -> bad (k ^ " not int") in
  {
    devices = int_of "devices";
    anomalies = int_of "anomalies";
    corruptions = int_of "corruptions";
    ckpt_failures = int_of "ckpt_failures";
    brownouts = int_of "brownouts";
    detections = int_of "detections";
    completions = int_of "completions";
    latency = Sketch.of_json (field "latency");
    top_k = int_of "top_k";
    outliers =
      (match field "outliers" with
      | Json.List xs -> List.map outlier_of_json xs
      | _ -> bad "outliers is not a list");
  }

(* --- campaign configuration ------------------------------------------- *)

type config = {
  tel_path : string option;
  tel_progress : bool;
  tel_top_k : int;
  tel_weights : weights;
  tel_flight_capacity : int;
}

let default_config =
  {
    tel_path = None;
    tel_progress = false;
    tel_top_k = 8;
    tel_weights = default_weights;
    tel_flight_capacity = Gecko_obs.Flight.default_capacity;
  }

let stream_schema = "gecko.fleet-telemetry/1"

let weights_to_json w =
  Json.Assoc
    [
      ("corruption", Json.Float w.w_corruption);
      ("ckpt_failure", Json.Float w.w_ckpt_failure);
      ("brownout", Json.Float w.w_brownout);
      ("detect_latency", Json.Float w.w_detect_latency);
    ]

let weights_of_json j =
  let bad msg = invalid_arg ("Fleet.Telemetry.weights_of_json: " ^ msg) in
  let f k =
    match Option.bind (Json.member k j) Json.to_float_opt with
    | Some v -> v
    | None -> bad ("missing " ^ k)
  in
  {
    w_corruption = f "corruption";
    w_ckpt_failure = f "ckpt_failure";
    w_brownout = f "brownout";
    w_detect_latency = f "detect_latency";
  }

(* The header record of a gecko.fleet-telemetry/1 stream embeds the
   replay-relevant half of the config (weights, top-K, flight capacity),
   so `gecko replay` can reconstruct the exact scoring and ring depth
   the campaign used. *)
let config_to_json c =
  Json.Assoc
    [
      ("top_k", Json.Int c.tel_top_k);
      ("flight_capacity", Json.Int c.tel_flight_capacity);
      ("weights", weights_to_json c.tel_weights);
    ]

let config_of_json j =
  let bad msg = invalid_arg ("Fleet.Telemetry.config_of_json: " ^ msg) in
  let int_of k =
    match Json.member k j with
    | Some (Json.Int i) -> i
    | _ -> bad ("missing " ^ k)
  in
  {
    default_config with
    tel_top_k = int_of "top_k";
    tel_flight_capacity = int_of "flight_capacity";
    tel_weights =
      (match Json.member "weights" j with
      | Some w -> weights_of_json w
      | None -> bad "missing weights");
  }
