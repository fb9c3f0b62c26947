module Json = Gecko_obs.Json
module Trace = Gecko_obs.Trace
module Metrics = Gecko_obs.Metrics

let feq = Alcotest.float 1e-9

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse error: %s in %s" e s

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Assoc
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("string", Json.String "quote\" slash\\ newline\n tab\t unicode é");
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
        ("nested", Json.Assoc [ ("k", Json.List []) ]);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check bool) "round trip" true (Json.equal doc (parse_exn s));
  (* Non-finite floats cannot be represented: printed as null. *)
  let s = Json.to_string (Json.List [ Json.Float Float.nan; Json.Float infinity ]) in
  Alcotest.(check bool) "nan/inf -> null" true
    (Json.equal (Json.List [ Json.Null; Json.Null ]) (parse_exn s));
  (* Escapes parse back. *)
  Alcotest.(check bool) "unicode escape" true
    (Json.equal (Json.String "A\xc3\xa9") (parse_exn {|"Aé"|}));
  (match Json.parse "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be rejected");
  (* Accessors. *)
  let v = parse_exn {|{"a": {"b": 3}}|} in
  Alcotest.check feq "member chain" 3.
    (match Option.bind (Json.member "a" v) (Json.member "b") with
    | Some j -> Option.get (Json.to_float_opt j)
    | None -> Alcotest.fail "missing member")

(* ------------------------------------------------------------------ *)
(* Trace recorder                                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_recorder () =
  let t = Trace.create () in
  Trace.instant t ~cat:"a" ~ts:1.0 "one";
  Trace.complete t ~cat:"b" ~ts:2.0 ~dur:0.5 "two";
  Trace.counter t ~ts:3.0 "volts" 2.5;
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "no drops" 0 (Trace.dropped t);
  (match Trace.entries t with
  | [ e1; e2; e3 ] ->
      Alcotest.(check string) "oldest first" "one" e1.Trace.name;
      Alcotest.check feq "ts preserved" 2.0 e2.Trace.ts;
      (match e2.Trace.ph with
      | Trace.Complete d -> Alcotest.check feq "dur" 0.5 d
      | _ -> Alcotest.fail "expected a complete span");
      (match e3.Trace.ph with
      | Trace.Counter v -> Alcotest.check feq "counter value" 2.5 v
      | _ -> Alcotest.fail "expected a counter")
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_trace_ring_wrap () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.instant t ~ts:(float_of_int i) (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "holds capacity" 8 (Trace.length t);
  Alcotest.(check int) "dropped the rest" 12 (Trace.dropped t);
  let names = List.map (fun e -> e.Trace.name) (Trace.entries t) in
  Alcotest.(check (list string)) "keeps the newest, oldest first"
    [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    names

let test_trace_span () =
  let t = Trace.create () in
  let v = Trace.span t ~cat:"compiler" "work" (fun () -> 7) in
  Alcotest.(check int) "returns f's value" 7 v;
  (match Trace.entries t with
  | [ e ] -> (
      Alcotest.(check string) "span name" "work" e.Trace.name;
      match e.Trace.ph with
      | Trace.Complete d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.)
      | _ -> Alcotest.fail "expected a complete span")
  | _ -> Alcotest.fail "expected one entry");
  (* Recorded even when f raises. *)
  (match Trace.span t "raises" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the exception to propagate");
  Alcotest.(check int) "span on raise recorded" 2 (Trace.length t)

let test_trace_chrome_export () =
  let t = Trace.create () in
  Trace.instant t ~cat:"power" ~ts:1e-3 "boot";
  Trace.complete t ~cat:"checkpoint" ~ts:2e-3 ~dur:5e-6 "isr";
  Trace.counter t ~ts:3e-3 "cap_voltage" 2.7;
  let doc = parse_exn (Trace.to_chrome_string ~pid:9 t) in
  let objs =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "expected a traceEvents array"
  in
  (match Option.bind (Json.member "otherData" doc) (Json.member "dropped") with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "expected otherData.dropped = 0");
  Alcotest.(check int) "one object per entry" 3 (List.length objs);
  let field name o = Option.get (Json.member name o) in
  List.iter
    (fun o ->
      (* The Chrome trace-event viewer requires these fields. *)
      List.iter
        (fun k ->
          Alcotest.(check bool) ("has " ^ k) true (Json.member k o <> None))
        [ "name"; "ph"; "ts"; "pid"; "tid" ];
      Alcotest.check feq "pid" 9. (Option.get (Json.to_float_opt (field "pid" o))))
    objs;
  (match objs with
  | [ boot; isr; volts ] ->
      Alcotest.(check (option string))
        "instant ph" (Some "i")
        (Json.to_string_opt (field "ph" boot));
      (* ts is exported in microseconds. *)
      Alcotest.check feq "ts us" 1e3
        (Option.get (Json.to_float_opt (field "ts" boot)));
      Alcotest.(check (option string))
        "complete ph" (Some "X")
        (Json.to_string_opt (field "ph" isr));
      Alcotest.check feq "dur us" 5.
        (Option.get (Json.to_float_opt (field "dur" isr)));
      Alcotest.check feq "counter value" 2.7
        (Option.get
           (Json.to_float_opt (field "value" (field "args" volts))))
  | _ -> Alcotest.fail "expected 3 objects")

let test_trace_jsonl_export () =
  let t = Trace.create () in
  Trace.instant t ~ts:0.25 "a";
  Trace.counter t ~ts:0.5 "b" 4.;
  let lines =
    Trace.to_jsonl t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per entry" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Assoc _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "bad JSONL line: %s" e)
    lines;
  let last = parse_exn (List.nth lines 1) in
  Alcotest.check feq "value field" 4.
    (Option.get (Json.to_float_opt (Option.get (Json.member "value" last))))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters_gauges () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "reboots" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* Interned: same name, same instrument. *)
  Metrics.incr (Metrics.counter reg "reboots");
  Alcotest.(check int) "interned" 6 (Metrics.counter_value c);
  let g = Metrics.gauge reg "volts" in
  Alcotest.(check bool) "gauge starts nan" true
    (Float.is_nan (Metrics.gauge_value g));
  Metrics.set_gauge g 3.1;
  Alcotest.check feq "gauge" 3.1 (Metrics.gauge_value g);
  (* Kind mismatch on an existing name is a programming error. *)
  match Metrics.gauge reg "reboots" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected a kind-mismatch failure"

let test_metrics_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~base:2. ~lowest:1. reg "lat" in
  List.iter (Metrics.observe h) [ 1.5; 3.0; 3.5; 12.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.check feq "sum" 20. (Metrics.hist_sum h);
  Alcotest.check feq "min" 1.5 (Metrics.hist_min h);
  Alcotest.check feq "max" 12. (Metrics.hist_max h);
  Alcotest.check feq "mean" 5. (Metrics.hist_mean h);
  (* base 2, lowest 1: bucket 0 = [1,2), 1 = [2,4), 3 = [8,16). *)
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
    "bucketing"
    [ (1., 2., 1); (2., 4., 2); (8., 16., 1) ]
    (Metrics.buckets h);
  (* Quantiles land in the right bucket (geometric midpoint). *)
  let in_bucket q (lo, hi) =
    let v = Metrics.quantile h q in
    v >= lo && v < hi
  in
  Alcotest.(check bool) "p25 in [1,2)" true (in_bucket 0.25 (1., 2.));
  Alcotest.(check bool) "p50 in [2,4)" true (in_bucket 0.5 (2., 4.));
  Alcotest.(check bool) "p99 in [8,16)" true (in_bucket 0.99 (8., 16.));
  (* Underflow: values below [lowest] are counted separately. *)
  Metrics.observe h 0.1;
  Alcotest.(check bool) "underflow bucket" true
    (List.exists (fun (lo, hi, c) -> lo = 0. && hi = 1. && c = 1)
       (Metrics.buckets h));
  (* Empty histogram: total accessors. *)
  let e = Metrics.histogram reg "empty" in
  Alcotest.(check int) "empty count" 0 (Metrics.hist_count e);
  Alcotest.check feq "empty mean" 0. (Metrics.hist_mean e);
  Alcotest.check feq "empty quantile" 0. (Metrics.quantile e 0.5)

let test_metrics_export () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "b.count");
  Metrics.incr (Metrics.counter reg "a.count");
  Metrics.set_gauge (Metrics.gauge reg "volts") 2.5;
  let h = Metrics.histogram ~base:2. ~lowest:1. reg "lat" in
  Metrics.observe h 3.;
  let doc = parse_exn (Json.to_string (Metrics.to_json reg)) in
  let get path =
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some doc) path
  in
  Alcotest.check feq "counter export" 3.
    (Option.get (Json.to_float_opt (Option.get (get [ "counters"; "b.count" ]))));
  Alcotest.check feq "gauge export" 2.5
    (Option.get (Json.to_float_opt (Option.get (get [ "gauges"; "volts" ]))));
  Alcotest.check feq "histogram count" 1.
    (Option.get (Json.to_float_opt (Option.get (get [ "histograms"; "lat"; "count" ]))));
  (* Counters are sorted by name. *)
  (match get [ "counters" ] with
  | Some (Json.Assoc kvs) ->
      Alcotest.(check (list string))
        "sorted" [ "a.count"; "b.count" ] (List.map fst kvs)
  | _ -> Alcotest.fail "expected a counters object");
  let csv = Metrics.to_csv reg in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check bool) "csv header" true
    (List.hd lines = "kind,name,field,value");
  Alcotest.(check bool) "csv counter row" true
    (List.mem "counter,b.count,value,3" lines);
  Alcotest.(check bool) "csv gauge row" true
    (List.mem "gauge,volts,value,2.5" lines)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight = Gecko_obs.Flight

let test_flight_ring_wrap () =
  let fl = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.record fl ~t_sim:(float_of_int i) ~arg:i ~v:3.0 "boundary"
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Flight.length fl);
  Alcotest.(check int) "dropped counts the overwritten" 6 (Flight.dropped fl);
  Alcotest.(check (list int))
    "keeps the last N, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Flight.e_arg) (Flight.entries fl));
  let j = Flight.to_json fl in
  (match Json.member "schema" j with
  | Some (Json.String "gecko.flight/1") -> ()
  | _ -> Alcotest.fail "bad schema tag");
  (match Json.member "recorded" j with
  | Some (Json.Int 10) -> ()
  | _ -> Alcotest.fail "recorded must count kept + dropped");
  Flight.clear fl;
  Alcotest.(check int) "clear empties the ring" 0 (Flight.length fl);
  Alcotest.(check int) "clear resets dropped" 0 (Flight.dropped fl)

let test_flight_capacity_one () =
  (* The degenerate ring: every record overwrites the single slot. *)
  let fl = Flight.create ~capacity:1 () in
  Alcotest.(check int) "capacity clamps to >= 1" 1 (Flight.capacity fl);
  Flight.record fl ~t_sim:0.5 ~arg:1 ~v:2.0 "boot";
  Flight.record fl ~t_sim:1.5 ~arg:2 ~v:2.5 "detection";
  Alcotest.(check int) "one kept" 1 (Flight.length fl);
  Alcotest.(check int) "one dropped" 1 (Flight.dropped fl);
  (match Flight.entries fl with
  | [ e ] ->
      Alcotest.(check string) "latest survives" "detection" e.Flight.e_ev;
      Alcotest.check feq "its timestamp" 1.5 e.Flight.e_t
  | _ -> Alcotest.fail "expected exactly one entry")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_metrics_prometheus () =
  let reg = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter reg "machine.completions");
  Metrics.set_gauge (Metrics.gauge reg "cap-volts") 2.5;
  let h = Metrics.histogram reg "machine.rollback_s" in
  Metrics.observe h 0.002;
  Metrics.observe h 0.004;
  let text = Metrics.to_prometheus reg in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE machine_completions counter");
  Alcotest.(check bool) "counter sample" true (has "machine_completions 3");
  Alcotest.(check bool) "gauge sanitized name" true (has "cap_volts 2.5");
  Alcotest.(check bool) "histogram TYPE line" true
    (has "# TYPE machine_rollback_s histogram");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (has "machine_rollback_s_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram count" true (has "machine_rollback_s_count 2");
  (* Bucket counts must be cumulative: each le line's value is
     non-decreasing in file order. *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        let prefix = "machine_rollback_s_bucket{" in
        if String.starts_with ~prefix l then
          match String.rindex_opt l ' ' with
          | Some i ->
              float_of_string_opt
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "at least two bucket lines" true
    (List.length bucket_counts >= 2);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "bucket counts are cumulative" true
    (nondecreasing bucket_counts)

let () =
  Alcotest.run "obs"
    [
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_roundtrip ]);
      ( "trace",
        [
          Alcotest.test_case "recorder" `Quick test_trace_recorder;
          Alcotest.test_case "ring wrap" `Quick test_trace_ring_wrap;
          Alcotest.test_case "span" `Quick test_trace_span;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "jsonl export" `Quick test_trace_jsonl_export;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap" `Quick test_flight_ring_wrap;
          Alcotest.test_case "capacity one" `Quick test_flight_capacity_one;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters & gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "export" `Quick test_metrics_export;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_prometheus;
        ] );
    ]
