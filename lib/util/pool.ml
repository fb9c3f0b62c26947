type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;  (* queue became non-empty, a task finished, or shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let default_jobs () =
  match Sys.getenv_opt "GECKO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if t.closed then None
    else if Queue.is_empty t.queue then begin
      Condition.wait t.work t.mutex;
      next ()
    end
    else Some (Queue.pop t.queue)
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      task ();
      worker_loop t

let create ?jobs () =
  let size = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      workers = [];
      closed = false;
    }
  in
  t.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.size

let shared_pools = ref []
let shared_lock = Mutex.create ()

let shared ~jobs =
  let jobs = max 1 jobs in
  Mutex.protect shared_lock (fun () ->
      match List.assoc_opt jobs !shared_pools with
      | Some p -> p
      | None ->
          let p = create ~jobs () in
          shared_pools := (jobs, p) :: !shared_pools;
          p)

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

(* Tasks never raise: each wraps its own result.  Completion is counted
   under the pool mutex so the caller can sleep on [work] until the last
   task of its batch lands. *)
let map t f xs =
  if t.size <= 1 || t.closed then List.map f xs
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | xs ->
        let items = Array.of_list xs in
        let n = Array.length items in
        let results = Array.make n None in
        let left = ref n in
        let task i () =
          let r =
            match f items.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock t.mutex;
          results.(i) <- Some r;
          decr left;
          if !left = 0 then Condition.broadcast t.work;
          Mutex.unlock t.mutex
        in
        Mutex.lock t.mutex;
        for i = 0 to n - 1 do
          Queue.add (task i) t.queue
        done;
        Condition.broadcast t.work;
        (* The caller works the queue too; when it drains (possibly into
           other domains' hands), sleep until the batch completes. *)
        let rec drive () =
          if !left > 0 then
            if Queue.is_empty t.queue then begin
              Condition.wait t.work t.mutex;
              drive ()
            end
            else begin
              let task = Queue.pop t.queue in
              Mutex.unlock t.mutex;
              task ();
              Mutex.lock t.mutex;
              drive ()
            end
        in
        drive ();
        Mutex.unlock t.mutex;
        (* Re-raise the first failure in input order, if any. *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) -> ()
            | None -> assert false)
          results;
        List.init n (fun i ->
            match results.(i) with
            | Some (Ok v) -> v
            | Some (Error _) | None -> assert false)
