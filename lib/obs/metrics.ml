type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float }

type histogram = {
  h_name : string;
  base : float;
  lowest : float;
  log_base : float;
  mutable counts : int array;
  mutable underflow : int;
  mutable n : int;
  mutable sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument = C of counter | G of gauge | H of histogram

type registry = (string, instrument) Hashtbl.t

let create () : registry = Hashtbl.create 32

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let intern reg name make match_kind =
  match Hashtbl.find_opt reg name with
  | Some i -> (
      match match_kind i with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name i)))
  | None ->
      let i = make () in
      Hashtbl.replace reg name i;
      (match match_kind i with Some v -> v | None -> assert false)

let counter reg name =
  intern reg name
    (fun () -> C { c_name = name; count = 0 })
    (function C c -> Some c | _ -> None)

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let gauge reg name =
  intern reg name
    (fun () -> G { g_name = name; value = Float.nan })
    (function G g -> Some g | _ -> None)

let set_gauge g v = g.value <- v
let gauge_value g = g.value

let max_buckets = 512

let histogram ?(base = 2.) ?(lowest = 1e-9) reg name =
  if base <= 1. then invalid_arg "Metrics.histogram: base must exceed 1";
  if lowest <= 0. then invalid_arg "Metrics.histogram: lowest must be positive";
  intern reg name
    (fun () ->
      H
        {
          h_name = name;
          base;
          lowest;
          log_base = log base;
          counts = Array.make 8 0;
          underflow = 0;
          n = 0;
          sum = 0.;
          h_min = Float.nan;
          h_max = Float.nan;
        })
    (function H h -> Some h | _ -> None)

let bucket_index h v =
  if v < h.lowest then -1
  else
    let i = int_of_float (floor (log (v /. h.lowest) /. h.log_base)) in
    min (max i 0) (max_buckets - 1)

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if Float.is_nan h.h_min || v < h.h_min then h.h_min <- v;
  if Float.is_nan h.h_max || v > h.h_max then h.h_max <- v;
  let i = bucket_index h v in
  if i < 0 then h.underflow <- h.underflow + 1
  else begin
    if i >= Array.length h.counts then begin
      let counts' = Array.make (min max_buckets (max (i + 1) (2 * Array.length h.counts))) 0 in
      Array.blit h.counts 0 counts' 0 (Array.length h.counts);
      h.counts <- counts'
    end;
    h.counts.(i) <- h.counts.(i) + 1
  end

let hist_count h = h.n
let hist_sum h = h.sum
let hist_min h = h.h_min
let hist_max h = h.h_max
let hist_mean h = if h.n = 0 then 0. else h.sum /. float_of_int h.n

let bucket_bounds h i =
  (h.lowest *. (h.base ** float_of_int i), h.lowest *. (h.base ** float_of_int (i + 1)))

let quantile h q =
  if h.n = 0 then 0.
  else begin
    let target =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      min (max r 1) h.n
    in
    let seen = ref h.underflow in
    if !seen >= target then h.lowest /. 2.
    else begin
      let result = ref Float.nan in
      (try
         Array.iteri
           (fun i c ->
             seen := !seen + c;
             if c > 0 && !seen >= target then begin
               let lo, hi = bucket_bounds h i in
               result := sqrt (lo *. hi);
               raise Exit
             end)
           h.counts
       with Exit -> ());
      if Float.is_nan !result then h.h_max else !result
    end
  end

let buckets h =
  let under = if h.underflow > 0 then [ (0., h.lowest, h.underflow) ] else [] in
  let rest = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bucket_bounds h i in
        rest := (lo, hi, c) :: !rest)
    h.counts;
  under @ List.rev !rest

(* --- copy ------------------------------------------------------------- *)

let copy_instrument = function
  | C c -> C { c with count = c.count }
  | G g -> G { g with value = g.value }
  | H h -> H { h with counts = Array.copy h.counts }

let copy (reg : registry) : registry =
  let r = Hashtbl.copy reg in
  Hashtbl.filter_map_inplace (fun _ i -> Some (copy_instrument i)) r;
  r

(* --- merge ------------------------------------------------------------ *)

let merge_gauge_value a b =
  if Float.is_nan b then a else if Float.is_nan a then b else Float.max a b

let merge_min a b =
  if Float.is_nan b then a else if Float.is_nan a then b else Float.min a b

let merge_max a b =
  if Float.is_nan b then a else if Float.is_nan a then b else Float.max a b

let merge_hist_into (dst : histogram) (src : histogram) =
  if dst.base <> src.base || dst.lowest <> src.lowest then
    invalid_arg
      (Printf.sprintf
         "Metrics.merge_into: histogram %S bucketing mismatch (base %g/%g, \
          lowest %g/%g)"
         dst.h_name dst.base src.base dst.lowest src.lowest);
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  dst.underflow <- dst.underflow + src.underflow;
  dst.h_min <- merge_min dst.h_min src.h_min;
  dst.h_max <- merge_max dst.h_max src.h_max;
  if Array.length src.counts > Array.length dst.counts then begin
    let counts' = Array.make (Array.length src.counts) 0 in
    Array.blit dst.counts 0 counts' 0 (Array.length dst.counts);
    dst.counts <- counts'
  end;
  Array.iteri (fun i c -> if c <> 0 then dst.counts.(i) <- dst.counts.(i) + c)
    src.counts

let merge_into (dst : registry) (src : registry) =
  Hashtbl.iter
    (fun name i ->
      match i with
      | C c ->
          let d = counter dst name in
          d.count <- d.count + c.count
      | G g ->
          let d = gauge dst name in
          d.value <- merge_gauge_value d.value g.value
      | H h ->
          let d = histogram ~base:h.base ~lowest:h.lowest dst name in
          merge_hist_into d h)
    src

(* --- exporters -------------------------------------------------------- *)

let sorted_instruments (reg : registry) =
  Hashtbl.fold (fun name i acc -> (name, i) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_json h =
  Json.Assoc
    [
      ("count", Json.Int h.n);
      ("sum", Json.Float h.sum);
      ("min", Json.Float h.h_min);
      ("max", Json.Float h.h_max);
      ("mean", Json.Float (hist_mean h));
      ("p50", Json.Float (quantile h 0.5));
      ("p90", Json.Float (quantile h 0.9));
      ("p99", Json.Float (quantile h 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Assoc
                 [
                   ("lo", Json.Float lo); ("hi", Json.Float hi); ("count", Json.Int c);
                 ])
             (buckets h)) );
    ]

let to_json reg =
  let items = sorted_instruments reg in
  let pick f = List.filter_map f items in
  Json.Assoc
    [
      ( "counters",
        Json.Assoc
          (pick (function n, C c -> Some (n, Json.Int c.count) | _ -> None)) );
      ( "gauges",
        Json.Assoc
          (pick (function n, G g -> Some (n, Json.Float g.value) | _ -> None))
      );
      ( "histograms",
        Json.Assoc
          (pick (function n, H h -> Some (n, hist_json h) | _ -> None)) );
    ]

(* Exact persistence: unlike [to_json] (a lossy human-facing export),
   [to_persist]/[of_persist] round-trip a registry bit-for-bit for finite
   values ([%.17g] floats; nan/inf degrade to JSON null and restore as
   nan).  The fleet campaign snapshot leans on this: a resumed campaign
   must merge to the byte-identical report. *)

let persist_float f = if Float.is_nan f then Json.Null else Json.Float f

let restore_float = function
  | Json.Null -> Float.nan
  | j -> (
      match Json.to_float_opt j with
      | Some f -> f
      | None -> invalid_arg "Metrics.of_persist: expected a number")

let to_persist reg =
  let items = sorted_instruments reg in
  let pick f = List.filter_map f items in
  Json.Assoc
    [
      ( "counters",
        Json.Assoc
          (pick (function n, C c -> Some (n, Json.Int c.count) | _ -> None)) );
      ( "gauges",
        Json.Assoc
          (pick (function n, G g -> Some (n, persist_float g.value) | _ -> None))
      );
      ( "histograms",
        Json.Assoc
          (pick (function
            | n, H h ->
                Some
                  ( n,
                    Json.Assoc
                      [
                        ("base", Json.Float h.base);
                        ("lowest", Json.Float h.lowest);
                        ("n", Json.Int h.n);
                        ("sum", persist_float h.sum);
                        ("underflow", Json.Int h.underflow);
                        ("min", persist_float h.h_min);
                        ("max", persist_float h.h_max);
                        ( "counts",
                          Json.List
                            (Array.to_list
                               (Array.map (fun c -> Json.Int c) h.counts)) );
                      ] )
            | _ -> None)) );
    ]

let of_persist j =
  let bad msg = invalid_arg ("Metrics.of_persist: " ^ msg) in
  let obj name =
    match Json.member name j with
    | Some (Json.Assoc kvs) -> kvs
    | Some _ -> bad (name ^ " is not an object")
    | None -> bad ("missing " ^ name)
  in
  let int_of = function Json.Int i -> i | _ -> bad "expected an integer" in
  let reg = create () in
  List.iter
    (fun (name, v) ->
      let c = counter reg name in
      c.count <- int_of v)
    (obj "counters");
  List.iter
    (fun (name, v) ->
      let g = gauge reg name in
      g.value <- restore_float v)
    (obj "gauges");
  List.iter
    (fun (name, v) ->
      let field k =
        match Json.member k v with
        | Some x -> x
        | None -> bad ("histogram " ^ name ^ " lacks " ^ k)
      in
      let h = histogram ~base:(restore_float (field "base"))
          ~lowest:(restore_float (field "lowest")) reg name
      in
      h.n <- int_of (field "n");
      h.sum <- restore_float (field "sum");
      h.underflow <- int_of (field "underflow");
      h.h_min <- restore_float (field "min");
      h.h_max <- restore_float (field "max");
      (match field "counts" with
      | Json.List cs -> h.counts <- Array.of_list (List.map int_of cs)
      | _ -> bad ("histogram " ^ name ^ " counts is not a list")))
    (obj "histograms");
  reg

(* Prometheus text exposition (version 0.0.4).  Instrument names keep
   their dotted form in the registry; the exposition sanitizes them to
   the [a-zA-Z_:][a-zA-Z0-9_:]* charset.  Histogram buckets follow the
   Prometheus convention: cumulative counts with [le] upper bounds plus
   the mandatory [+Inf] bucket, then [_sum] and [_count]. *)

let prom_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | '_' -> c
      | _ -> '_')
    name

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" f

let to_prometheus reg =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, i) ->
      let n = prom_name name in
      match i with
      | C c ->
          line "# TYPE %s counter" n;
          line "%s %d" n c.count
      | G g ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (prom_float g.value)
      | H h ->
          line "# TYPE %s histogram" n;
          let cum = ref h.underflow in
          if h.underflow > 0 then
            line "%s_bucket{le=\"%s\"} %d" n (prom_float h.lowest) !cum;
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                cum := !cum + c;
                let _, hi = bucket_bounds h i in
                line "%s_bucket{le=\"%s\"} %d" n (prom_float hi) !cum
              end)
            h.counts;
          line "%s_bucket{le=\"+Inf\"} %d" n h.n;
          line "%s_sum %s" n (prom_float h.sum);
          line "%s_count %d" n h.n)
    (sorted_instruments reg);
  Buffer.contents buf

let csv_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "nan"

let to_csv reg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,field,value\n";
  List.iter
    (fun (name, i) ->
      match i with
      | C c -> Buffer.add_string buf (Printf.sprintf "counter,%s,value,%d\n" name c.count)
      | G g ->
          Buffer.add_string buf
            (Printf.sprintf "gauge,%s,value,%s\n" name (csv_float g.value))
      | H h ->
          List.iter
            (fun (field, v) ->
              Buffer.add_string buf
                (Printf.sprintf "histogram,%s,%s,%s\n" name field (csv_float v)))
            [
              ("count", float_of_int h.n);
              ("sum", h.sum);
              ("min", h.h_min);
              ("max", h.h_max);
              ("mean", hist_mean h);
              ("p50", quantile h 0.5);
              ("p90", quantile h 0.9);
              ("p99", quantile h 0.99);
            ];
          List.iter
            (fun (lo, hi, c) ->
              Buffer.add_string buf
                (Printf.sprintf "histogram,%s,bucket<%.3g:%.3g>,%d\n" name lo hi c))
            (buckets h))
    (sorted_instruments reg);
  Buffer.contents buf
