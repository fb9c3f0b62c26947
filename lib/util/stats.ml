let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
      let logs = List.map log xs in
      exp (mean logs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var = mean (List.map (fun x -> (x -. m) ** 2.) xs) in
      sqrt var

let minimum = function
  | [] -> 0.
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> 0.
  | x :: xs -> List.fold_left max x xs

let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  {
    n = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    max = maximum xs;
    median = median xs;
  }

(* --- mergeable streaming accumulator ---------------------------------- *)

module Acc = struct
  type t = {
    n : int;
    sum : float;
    sumsq : float;
    min_v : float;  (* +inf when empty, so Float.min is the merge *)
    max_v : float;  (* -inf when empty *)
  }

  let empty = { n = 0; sum = 0.; sumsq = 0.; min_v = infinity; max_v = neg_infinity }

  let is_empty t = t.n = 0

  let add t x =
    {
      n = t.n + 1;
      sum = t.sum +. x;
      sumsq = t.sumsq +. (x *. x);
      min_v = Float.min t.min_v x;
      max_v = Float.max t.max_v x;
    }

  let of_list xs = List.fold_left add empty xs

  let merge a b =
    {
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      sumsq = a.sumsq +. b.sumsq;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
    }

  let count t = t.n
  let total t = t.sum
  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

  let stddev t =
    if t.n < 2 then 0.
    else
      let m = mean t in
      (* Population variance from the running moments; clamp the tiny
         negative values cancellation can produce. *)
      sqrt (Float.max 0. ((t.sumsq /. float_of_int t.n) -. (m *. m)))

  let minimum t = if t.n = 0 then 0. else t.min_v
  let maximum t = if t.n = 0 then 0. else t.max_v
end
