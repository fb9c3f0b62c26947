open Gecko_isa

type t = {
  func : Cfg.func;
  blocks : Cfg.block array;
  index_of : (string, int) Hashtbl.t;
  succ : int list array;
  pred : int list array;
}

let of_func (f : Cfg.func) =
  let blocks = Array.of_list f.Cfg.blocks in
  let n = Array.length blocks in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace index_of b.Cfg.label i) blocks;
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  Array.iteri
    (fun i b ->
      let ss =
        List.filter_map
          (fun l -> Hashtbl.find_opt index_of l)
          (Cfg.successors b.Cfg.term)
      in
      succ.(i) <- ss;
      List.iter (fun s -> pred.(s) <- i :: pred.(s)) ss)
    blocks;
  { func = f; blocks; index_of; succ; pred }

let n_blocks t = Array.length t.blocks

let block_id t label =
  match Hashtbl.find_opt t.index_of label with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Fgraph.block_id: no block %s" label)

let rpo t =
  let n = n_blocks t in
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs t.succ.(i);
      post := i :: !post
    end
  in
  if n > 0 then dfs 0;
  Array.of_list !post

type point = { blk : int; idx : int }

let point_compare a b =
  match compare a.blk b.blk with 0 -> compare a.idx b.idx | c -> c

let instr_at t p =
  let b = t.blocks.(p.blk) in
  List.nth_opt b.Cfg.instrs p.idx

let pp_point t ppf p =
  Format.fprintf ppf "%s+%d" t.blocks.(p.blk).Cfg.label p.idx
