open Gecko_isa
module M = Gecko_machine.Machine
module Schedule = Gecko_emi.Schedule
module Attack = Gecko_emi.Attack
module Signal = Gecko_emi.Signal
module Copy = Gecko_core.Copy

type repro = {
  r_prog : Cfg.program;
  r_schedule : Schedule.t;
  r_fires : int list;
}

let instr_count r = Cfg.instr_count r.r_prog

let size r =
  instr_count r + Schedule.n_windows r.r_schedule + List.length r.r_fires

let default_check ~compile ~board ?opts () repro =
  match
    let image, meta = compile repro.r_prog in
    let opts = match opts with Some o -> o | None -> Explore.default_opts in
    let opts = Inject.with_decode ~board ~image opts in
    let golden_nvm, golden_io =
      Explore.golden ~max_sim_time:opts.M.max_sim_time ?decoded:opts.M.decoded
        ~board ~image ~meta ()
    in
    let opts = { opts with M.schedule = repro.r_schedule } in
    let o, nvm =
      Inject.run_with_fires ~board ~image ~meta opts ~fires:repro.r_fires
    in
    Explore.oracle ~golden_nvm ~golden_io o ~nvm
  with
  | Ok () -> false
  | Error _ -> true
  | exception _ -> false

(* Try candidates in order; commit to the first still-failing one. *)
let first_passing check cands =
  List.find_opt check cands

(* {2 Fires} *)

let fires_candidates r =
  let drop_each =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) r.r_fires) r.r_fires
  in
  let halved = List.map (fun v -> v / 2) r.r_fires in
  ([] :: drop_each) @ (if halved <> r.r_fires then [ halved ] else [])
  |> List.filter (fun fs -> fs <> r.r_fires)
  |> List.map (fun fs -> { r with r_fires = fs })

(* {2 Schedule} *)

let schedule_candidates r =
  let n = Schedule.n_windows r.r_schedule in
  let dropped = List.init n (fun i -> Schedule.drop_window r.r_schedule i) in
  let halved = List.init n (fun i -> Schedule.scale_window r.r_schedule i 0.5) in
  (Schedule.empty :: dropped) @ halved
  |> List.filter (fun s -> Schedule.windows s <> Schedule.windows r.r_schedule)
  |> List.map (fun s -> { r with r_schedule = s })

(* {2 Program}

   Delta debugging per block: deleting contiguous chunks of the
   instruction list, largest first, plus collapsing loop bounds.  Every
   candidate is built on a deep copy so rejected candidates leave no
   trace. *)

let with_block_instrs r ~fname ~label instrs =
  let p = Copy.program r.r_prog in
  let b = Cfg.find_block (Cfg.find_func p fname) label in
  b.Cfg.instrs <- instrs;
  { r with r_prog = p }

let with_loop_bound r ~fname ~label bound =
  let p = Copy.program r.r_prog in
  let b = Cfg.find_block (Cfg.find_func p fname) label in
  b.Cfg.loop_bound <- bound;
  { r with r_prog = p }

let chunk_deletions instrs =
  let n = List.length instrs in
  let del lo len =
    List.filteri (fun i _ -> i < lo || i >= lo + len) instrs
  in
  let rec sizes acc k = if k < 1 then acc else sizes (k :: acc) (k / 2) in
  (* Largest chunks first: [n; n/2; ...; 1]. *)
  let cands = ref [] in
  List.iter
    (fun len ->
      let lo = ref 0 in
      while !lo + len <= n do
        cands := del !lo len :: !cands;
        lo := !lo + len
      done)
    (List.rev (sizes [] n));
  List.rev !cands

let program_candidates r =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun b ->
          let deletions =
            chunk_deletions b.Cfg.instrs
            |> List.map (fun instrs ->
                   with_block_instrs r ~fname:f.Cfg.fname ~label:b.Cfg.label
                     instrs)
          in
          let bounds =
            match b.Cfg.loop_bound with
            | Some k when k > 1 ->
                [
                  with_loop_bound r ~fname:f.Cfg.fname ~label:b.Cfg.label
                    (Some 1);
                  with_loop_bound r ~fname:f.Cfg.fname ~label:b.Cfg.label
                    (Some (k / 2));
                ]
            | _ -> []
          in
          deletions @ bounds)
        f.Cfg.blocks)
    r.r_prog.Cfg.funcs

let shrink ?(max_rounds = 8) ~check r =
  if not (check r) then r
  else begin
    let cur = ref r in
    let progress = ref true in
    let rounds = ref 0 in
    while !progress && !rounds < max_rounds do
      progress := false;
      incr rounds;
      let try_pass cands =
        match
          first_passing check
            (List.filter (fun c -> size c < size !cur) cands)
        with
        | Some c ->
            cur := c;
            progress := true
        | None -> ()
      in
      (* Cheapest reductions first; each pass re-runs until it is dry so
         a single round usually reaches the pass's local fixpoint. *)
      let exhaust mk =
        let again = ref true in
        while !again do
          let before = size !cur in
          try_pass (mk !cur);
          again := size !cur < before
        done
      in
      exhaust fires_candidates;
      exhaust schedule_candidates;
      exhaust program_candidates
    done;
    !cur
  end

(* {2 Pretty-printing} *)

let ocaml_of_attack (a : Attack.t) =
  let signal =
    Printf.sprintf "(Gecko_emi.Signal.make ~freq_mhz:%g ~power_dbm:%g)"
      (Signal.freq_mhz a.Attack.signal)
      a.Attack.signal.Signal.power_dbm
  in
  match a.Attack.path with
  | Attack.Remote { distance_m; through_wall } ->
      Printf.sprintf
        "Gecko_emi.Attack.remote ~through_wall:%b ~distance_m:%g %s"
        through_wall distance_m signal
  | Attack.Dpi p ->
      Printf.sprintf "Gecko_emi.Attack.dpi Gecko_emi.Attack.%s %s"
        (match p with Attack.P1 -> "P1" | Attack.P2 -> "P2")
        signal

let to_ocaml r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "let program =\n";
  Buffer.add_string buf "  match Gecko_isa.Asm.parse {gasm|\n";
  Buffer.add_string buf (Asm.to_string r.r_prog);
  Buffer.add_string buf "|gasm}\n";
  Buffer.add_string buf
    "  with Ok p -> p | Error e -> failwith e\n\n";
  Buffer.add_string buf "let schedule =\n  Gecko_emi.Schedule.normalize [\n";
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf
           "    Gecko_emi.Schedule.window ~t_start:%g ~t_end:%g\n      (%s);\n"
           w.Schedule.t_start w.Schedule.t_end
           (ocaml_of_attack w.Schedule.attack)))
    (Schedule.windows r.r_schedule);
  Buffer.add_string buf "  ]\n\n";
  Buffer.add_string buf
    (Printf.sprintf "let fires = [%s]\n"
       (String.concat "; " (List.map string_of_int r.r_fires)));
  Buffer.contents buf
