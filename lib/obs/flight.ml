type entry = { e_t : float; e_ev : string; e_arg : int; e_v : float }

(* The ring is four parallel arrays overwritten in place: the float
   columns are flat [float array]s, so recording allocates nothing and a
   copy (one per forked run) is four array blits.  [entries]/[to_json]
   copy out into the immutable [entry] form. *)
type t = {
  ts : float array;
  evs : string array;
  args : int array;
  vs : float array;
  mutable head : int;  (* index of the oldest slot once wrapped *)
  mutable len : int;
  mutable dropped : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  {
    ts = Array.make capacity 0.;
    evs = Array.make capacity "";
    args = Array.make capacity 0;
    vs = Array.make capacity 0.;
    head = 0;
    len = 0;
    dropped = 0;
  }

let copy t =
  {
    t with
    ts = Array.copy t.ts;
    evs = Array.copy t.evs;
    args = Array.copy t.args;
    vs = Array.copy t.vs;
  }

let capacity t = Array.length t.ts
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let record t ~t_sim ~arg ~v ev =
  let cap = Array.length t.ts in
  let i =
    if t.len < cap then begin
      let i = (t.head + t.len) mod cap in
      t.len <- t.len + 1;
      i
    end
    else begin
      let i = t.head in
      t.head <- (t.head + 1) mod cap;
      t.dropped <- t.dropped + 1;
      i
    end
  in
  t.ts.(i) <- t_sim;
  t.evs.(i) <- ev;
  t.args.(i) <- arg;
  t.vs.(i) <- v

let entries t =
  let cap = Array.length t.ts in
  List.init t.len (fun k ->
      let i = (t.head + k) mod cap in
      { e_t = t.ts.(i); e_ev = t.evs.(i); e_arg = t.args.(i); e_v = t.vs.(i) })

let schema = "gecko.flight/1"

let to_json t =
  Json.Assoc
    [
      ("schema", Json.String schema);
      ("capacity", Json.Int (Array.length t.ts));
      ("recorded", Json.Int (t.len + t.dropped));
      ("dropped", Json.Int t.dropped);
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Assoc
                 [
                   ("t", Json.Float e.e_t);
                   ("ev", Json.String e.e_ev);
                   ("arg", Json.Int e.e_arg);
                   ("v", Json.Float e.e_v);
                 ])
             (entries t)) );
    ]

let to_string t = Json.to_string (to_json t)
