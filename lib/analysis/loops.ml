module Iset = Set.Make (Int)

type loop = { header : int; body : int list }

type t = { loops : loop list; header_set : Iset.t }

let natural_loop (g : Fgraph.t) header tail =
  (* Body = header plus everything that reaches [tail] without passing
     through [header]. *)
  let body = ref (Iset.singleton header) in
  let rec add b =
    if not (Iset.mem b !body) then begin
      body := Iset.add b !body;
      List.iter add g.Fgraph.pred.(b)
    end
  in
  add tail;
  !body

let compute (g : Fgraph.t) (dom : Dom.t) =
  let n = Fgraph.n_blocks g in
  let acc = ref [] in
  for b = 0 to n - 1 do
    List.iter
      (fun s ->
        if Dom.dominates dom s b then
          acc := { header = s; body = Iset.elements (natural_loop g s b) } :: !acc)
      g.Fgraph.succ.(b)
  done;
  (* Merge loops sharing a header. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let prev = try Hashtbl.find tbl l.header with Not_found -> Iset.empty in
      Hashtbl.replace tbl l.header
        (Iset.union prev (Iset.of_list l.body)))
    !acc;
  let loops =
    Hashtbl.fold
      (fun header body acc -> { header; body = Iset.elements body } :: acc)
      tbl []
  in
  let header_set =
    List.fold_left (fun s l -> Iset.add l.header s) Iset.empty loops
  in
  { loops; header_set }

let headers t = Iset.elements t.header_set
let loops t = t.loops
