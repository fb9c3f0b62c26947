type phase = Instant | Complete of float | Counter of float

type entry = {
  name : string;
  cat : string;
  ts : float;
  host : float;
  tid : int;
  ph : phase;
}

let dummy = { name = ""; cat = ""; ts = 0.; host = 0.; tid = 0; ph = Instant }

type t = {
  capacity : int;
  mutable buf : entry array;  (* grows geometrically up to capacity *)
  mutable head : int;  (* index of the oldest entry once wrapped *)
  mutable len : int;
  mutable dropped : int;
  epoch : float;
}

let default_capacity = 262_144

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    buf = Array.make (min 1024 (max 1 capacity)) dummy;
    head = 0;
    len = 0;
    dropped = 0;
    epoch = Unix.gettimeofday ();
  }

let elapsed t = Unix.gettimeofday () -. t.epoch
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let grow t =
  let cap = Array.length t.buf in
  if cap < t.capacity then begin
    let cap' = min t.capacity (cap * 2) in
    let buf' = Array.make cap' dummy in
    Array.blit t.buf 0 buf' 0 t.len;
    t.buf <- buf'
  end

let push t e =
  let cap = Array.length t.buf in
  if t.len = cap && cap < t.capacity then grow t;
  let cap = Array.length t.buf in
  if t.len < cap then begin
    t.buf.((t.head + t.len) mod cap) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* Full at capacity: overwrite the oldest. *)
    t.buf.(t.head) <- e;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end

let instant t ?(cat = "") ?(tid = 0) ~ts name =
  push t { name; cat; ts; host = elapsed t; tid; ph = Instant }

let complete t ?(cat = "") ?(tid = 0) ~ts ~dur name =
  push t { name; cat; ts; host = elapsed t; tid; ph = Complete dur }

let counter t ?(cat = "") ?(tid = 0) ~ts name v =
  push t { name; cat; ts; host = elapsed t; tid; ph = Counter v }

let span t ?cat ?tid name f =
  let t0 = elapsed t in
  let finish () = complete t ?cat ?tid ~ts:t0 ~dur:(elapsed t -. t0) name in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let entries t =
  let cap = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.head + i) mod cap))

(* --- exporters -------------------------------------------------------- *)

let ph_string = function
  | Instant -> "i"
  | Complete _ -> "X"
  | Counter _ -> "C"

let chrome_entry ~pid (e : entry) =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String (if e.cat = "" then "default" else e.cat));
      ("ph", Json.String (ph_string e.ph));
      ("ts", Json.Float (e.ts *. 1e6));
      ("pid", Json.Int pid);
      ("tid", Json.Int e.tid);
    ]
  in
  let extra =
    match e.ph with
    | Instant -> [ ("s", Json.String "t") ]
    | Complete dur -> [ ("dur", Json.Float (dur *. 1e6)) ]
    | Counter _ -> []
  in
  let args =
    let host = [ ("host_s", Json.Float e.host) ] in
    match e.ph with
    | Counter v -> ("value", Json.Float v) :: host
    | Instant | Complete _ -> host
  in
  Json.Assoc (base @ extra @ [ ("args", Json.Assoc args) ])

let to_chrome ?(pid = 1) t =
  Json.Assoc
    [
      ("traceEvents", Json.List (List.map (chrome_entry ~pid) (entries t)));
      ( "otherData",
        Json.Assoc
          [
            ("recorded", Json.Int (t.len + t.dropped));
            ("dropped", Json.Int t.dropped);
          ] );
    ]

let to_chrome_string ?pid t = Json.to_string (to_chrome ?pid t)

let jsonl_entry (e : entry) =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (ph_string e.ph));
      ("ts", Json.Float e.ts);
      ("host", Json.Float e.host);
      ("tid", Json.Int e.tid);
    ]
  in
  let extra =
    match e.ph with
    | Instant -> []
    | Complete dur -> [ ("dur", Json.Float dur) ]
    | Counter v -> [ ("value", Json.Float v) ]
  in
  Json.Assoc (base @ extra)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (jsonl_entry e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf
