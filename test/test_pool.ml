(* The domain pool under the experiment harness: ordering, exception
   propagation, serial (size-1) equivalence, and a stress run with many
   more tasks than domains. *)

module Pool = Gecko_util.Pool

let with_pool ~jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_preserves_order () =
  with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      let expect = List.map (fun x -> x * x) xs in
      Alcotest.(check (list int))
        "squares in input order" expect
        (Pool.map p (fun x -> x * x) xs))

let test_empty_and_singleton () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map p (fun x -> x + 1) [ 6 ]))

let test_exception_propagates () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.check_raises "first failure in input order re-raised"
        (Failure "task 3") (fun () ->
          ignore
            (Pool.map p
               (fun i -> if i >= 3 then failwith (Printf.sprintf "task %d" i) else i)
               (List.init 10 Fun.id))))

let test_survives_failure () =
  (* A failed batch must not wedge the pool for subsequent batches. *)
  with_pool ~jobs:3 (fun p ->
      (try ignore (Pool.map p (fun _ -> failwith "boom") [ 1; 2; 3 ])
       with Failure _ -> ());
      Alcotest.(check (list int))
        "pool still works after a failed batch" [ 2; 4; 6 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_serial_matches_list_map () =
  with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "size clamps to 1" 1 (Pool.jobs p);
      let xs = List.init 50 (fun i -> i - 25) in
      let f x = (x * 3) + 1 in
      Alcotest.(check (list int))
        "size-1 pool is List.map" (List.map f xs) (Pool.map p f xs))

let test_stress_many_tasks () =
  with_pool ~jobs:4 (fun p ->
      let n = 500 in
      let xs = List.init n Fun.id in
      (* Several batches back to back on the same pool, each much larger
         than the domain count. *)
      for round = 1 to 3 do
        let expect = List.map (fun x -> (x * round) mod 97) xs in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          expect
          (Pool.map p (fun x -> (x * round) mod 97) xs)
      done)

(* A shared pool is created once per size and serves map calls from
   several domains at once, each batch in its own input order. *)
let test_shared_pool () =
  let p = Pool.shared ~jobs:3 in
  Alcotest.(check bool) "same pool for the same size" true (p == Pool.shared ~jobs:3);
  Alcotest.(check bool) "a pool per size" false (p == Pool.shared ~jobs:2);
  let batch k () = Pool.map p (fun x -> (x * k) + 1) (List.init 200 Fun.id) in
  let others = List.init 2 (fun k -> Domain.spawn (batch (k + 2))) in
  let mine = batch 1 () in
  Alcotest.(check (list int)) "caller's batch" (List.init 200 (fun x -> x + 1)) mine;
  List.iteri
    (fun k d ->
      Alcotest.(check (list int))
        "concurrent batch"
        (List.init 200 (fun x -> (x * (k + 2)) + 1))
        (Domain.join d))
    others

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* Workbench.pmap rides on the shared pool; with several distinct
   failures in flight, the one re-raised must be the earliest in INPUT
   order, not completion order.  The earliest failing task is also the
   slowest, so any completion-order implementation would raise one of
   the later, faster failures instead. *)
let test_workbench_pmap_first_failure_in_input_order () =
  Gecko_harness.Workbench.set_jobs 3;
  Alcotest.check_raises "earliest input-order failure re-raised"
    (Failure "task 2") (fun () ->
      ignore
        (Gecko_harness.Workbench.pmap
           (fun i ->
             if i = 2 then begin
               let s = ref 0 in
               for k = 1 to 2_000_000 do
                 s := !s + k
               done;
               ignore (Sys.opaque_identity !s);
               failwith "task 2"
             end
             else if i = 5 || i = 7 then failwith (Printf.sprintf "task %d" i)
             else i)
           (List.init 12 Fun.id)))

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "usable after failure" `Quick test_survives_failure;
          Alcotest.test_case "size 1 = List.map" `Quick test_serial_matches_list_map;
          Alcotest.test_case "stress: many tasks" `Quick test_stress_many_tasks;
          Alcotest.test_case "shared pool" `Quick test_shared_pool;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "workbench",
        [
          Alcotest.test_case "pmap first failure in input order" `Quick
            test_workbench_pmap_first_failure_in_input_order;
        ] );
    ]
