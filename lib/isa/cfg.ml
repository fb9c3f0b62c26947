type block = {
  label : string;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
  mutable loop_bound : int option;
}

type func = { fname : string; mutable blocks : block list }

type program = {
  pname : string;
  mutable funcs : func list;
  main : string;
  spaces : Instr.space list;
  init_data : (int * int array) list;
}

let entry_block f =
  match f.blocks with
  | [] -> invalid_arg (Printf.sprintf "Cfg.entry_block: %s has no blocks" f.fname)
  | b :: _ -> b

let find_func p name =
  match List.find_opt (fun f -> f.fname = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Cfg.find_func: no function %s" name)

let find_block f label =
  match List.find_opt (fun b -> b.label = label) f.blocks with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Cfg.find_block: no block %s in %s" label f.fname)

let successors = function
  | Instr.Jmp l -> [ l ]
  | Instr.Br (_, _, t, e) -> if t = e then [ t ] else [ t; e ]
  | Instr.Call (_, ret) -> [ ret ]
  | Instr.Ret | Instr.Halt -> []

let iter_instrs p g =
  List.iter (fun f -> List.iter (fun b -> List.iter g b.instrs) f.blocks) p.funcs

let instr_count p =
  let n = ref 0 in
  iter_instrs p (fun _ -> incr n);
  !n

let count_matching p pred =
  let n = ref 0 in
  iter_instrs p (fun i -> if pred i then incr n);
  !n

let find_space p name =
  match List.find_opt (fun (s : Instr.space) -> s.space_name = name) p.spaces with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Cfg.find_space: no space %s" name)

(* Control-flow shape the compiler relies on: every block is reachable
   from the function entry, and every cycle is entered through a single
   header that dominates it (the graph is reducible), so cutting each
   natural-loop header leaves no boundary-free cycle.  A retreating DFS
   edge [u -> v] whose target does not dominate [u] closes a cycle that
   is also entered elsewhere: the first block of the DFS path from [v]
   to [u] that a path from the entry reaches without passing [v] is the
   one named.  Labels must already resolve. *)
let check_shape f =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace index b.label i) blocks;
  let succ =
    Array.map
      (fun b -> List.map (Hashtbl.find index) (successors b.term))
      blocks
  in
  (* Blocks reachable from the entry without entering [avoid]. *)
  let reach ?(avoid = -1) () =
    let seen = Array.make n false in
    let rec go i =
      if i <> avoid && not seen.(i) then begin
        seen.(i) <- true;
        List.iter go succ.(i)
      end
    in
    go 0;
    seen
  in
  let state = Array.make n `Unvisited in
  (* [stack] is the DFS path to [i], innermost first. *)
  let rec dfs i stack =
    state.(i) <- `On_stack;
    let bad =
      List.find_map
        (fun s ->
          match state.(s) with
          | `Unvisited -> dfs s (s :: stack)
          | `On_stack ->
              let avoiding = reach ~avoid:s () in
              let rec above acc = function
                | x :: rest when x <> s -> above (x :: acc) rest
                | _ -> acc
              in
              List.find_opt (fun x -> avoiding.(x)) (above [] stack)
              |> Option.map (fun x -> (x, s))
          | `Done -> None)
        succ.(i)
    in
    state.(i) <- `Done;
    bad
  in
  match Array.find_index not (reach ()) with
  | Some i ->
      Error
        (Printf.sprintf "%s: block %s is unreachable from the entry" f.fname
           blocks.(i).label)
  | None -> (
      match dfs 0 [ 0 ] with
      | None -> Ok ()
      | Some (x, h) ->
          Error
            (Printf.sprintf
               "%s: block %s enters the cycle through %s without passing its \
                header"
               f.fname blocks.(x).label blocks.(h).label))

let validate p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_func f =
    if f.blocks = [] then err "function %s has no blocks" f.fname
    else
      let labels = Hashtbl.create 16 in
      let dup =
        List.exists
          (fun b ->
            if Hashtbl.mem labels b.label then true
            else (
              Hashtbl.replace labels b.label ();
              false))
          f.blocks
      in
      if dup then err "function %s has duplicate block labels" f.fname
      else
        let bad_target =
          List.find_map
            (fun b ->
              let check_label l =
                if Hashtbl.mem labels l then None
                else Some (Printf.sprintf "%s: unknown label %s" f.fname l)
              in
              let term_issue =
                match b.term with
                | Instr.Jmp l -> check_label l
                | Instr.Br (_, _, t, e) -> (
                    match check_label t with
                    | Some _ as s -> s
                    | None -> check_label e)
                | Instr.Call (callee, ret) -> (
                    if not (List.exists (fun g -> g.fname = callee) p.funcs)
                    then Some (Printf.sprintf "%s: unknown callee %s" f.fname callee)
                    else check_label ret)
                | Instr.Ret | Instr.Halt -> None
              in
              match term_issue with
              | Some _ as s -> s
              | None ->
                  List.find_map
                    (fun i ->
                      match (Instr.mem_read i, Instr.mem_write i) with
                      | Some m, _ | _, Some m -> (
                          match m.Instr.disp with
                          | Instr.Dconst c
                            when c < 0 || c >= m.Instr.space.Instr.space_words ->
                              Some
                                (Printf.sprintf
                                   "%s/%s: %s[%d] out of bounds (size %d)"
                                   f.fname b.label m.Instr.space.Instr.space_name
                                   c m.Instr.space.Instr.space_words)
                          | _ -> None)
                      | None, None -> None)
                    b.instrs)
            f.blocks
        in
        match bad_target with Some s -> Error s | None -> check_shape f
  in
  let ids = List.map (fun (s : Instr.space) -> s.Instr.space_id) p.spaces in
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then err "duplicate space ids"
  else if not (List.exists (fun f -> f.fname = p.main) p.funcs) then
    err "main function %s not found" p.main
  else
    List.fold_left
      (fun acc f -> match acc with Error _ -> acc | Ok () -> check_func f)
      (Ok ()) p.funcs

let pp_block ppf b =
  Format.fprintf ppf "@[<v 2>%s:%s@," b.label
    (match b.loop_bound with
    | Some n -> Printf.sprintf "  ; loop bound %d" n
    | None -> "");
  List.iter (fun i -> Format.fprintf ppf "%a@," Instr.pp i) b.instrs;
  Format.fprintf ppf "%a@]" Instr.pp_terminator b.term

let pp_func ppf f =
  Format.fprintf ppf "@[<v>func %s:@," f.fname;
  List.iter (fun b -> Format.fprintf ppf "%a@," pp_block b) f.blocks;
  Format.fprintf ppf "@]"

let pp ppf p =
  Format.fprintf ppf "@[<v>program %s (main = %s)@," p.pname p.main;
  List.iter
    (fun (s : Instr.space) ->
      Format.fprintf ppf "space %s: %d words@," s.Instr.space_name
        s.Instr.space_words)
    p.spaces;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_func f) p.funcs;
  Format.fprintf ppf "@]"
