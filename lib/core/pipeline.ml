open Gecko_isa
module A = Gecko_analysis

let default_budget = 4000

(* Upper bound on per-boundary checkpoint cost, used when sizing regions
   before the stores exist. *)
let ckpt_overhead_estimate = function
  | Scheme.Nvp -> 0
  | Scheme.Ratchet ->
      (Reg.count * Cost.instr_cycles (Instr.CkptDyn Reg.r0))
      + Cost.instr_cycles (Instr.Boundary 0)
  | Scheme.Gecko_noprune | Scheme.Gecko ->
      (Reg.count * Cost.instr_cycles (Instr.Ckpt (Reg.r0, 0)))
      + Cost.instr_cycles (Instr.Boundary 0)

let fail_on_errors what = function
  | Ok () -> ()
  | Error errs ->
      failwith
        (Printf.sprintf "Pipeline: %s verification failed:\n%s" what
           (String.concat "\n" errs))

(* Compiler profiler: each pass runs under a host-clock span, and the IR
   instruction count is sampled after every pass so pass-by-pass code
   growth shows up on the same Perfetto track. *)
let pass ?obs ?metrics p name f =
  let run () =
    match obs with
    | None -> f ()
    | Some tr -> Gecko_obs.Trace.span tr ~cat:"compiler" name f
  in
  (* No observer, no clock read. *)
  let t0 = match metrics with None -> 0. | Some _ -> Sys.time () in
  let r = run () in
  (match metrics with
  | None -> ()
  | Some reg ->
      Gecko_obs.Metrics.observe
        (Gecko_obs.Metrics.histogram reg ("pipeline." ^ name ^ ".seconds"))
        (Sys.time () -. t0);
      Gecko_obs.Metrics.set_gauge
        (Gecko_obs.Metrics.gauge reg ("pipeline." ^ name ^ ".ir_instrs"))
        (float_of_int (Cfg.instr_count p)));
  (match obs with
  | None -> ()
  | Some tr ->
      Gecko_obs.Trace.counter tr ~cat:"compiler"
        ~ts:(Gecko_obs.Trace.elapsed tr) "ir_instrs"
        (float_of_int (Cfg.instr_count p)));
  r

(* Bound on colour-emit-scan attempts of one compile.  Every attempt
   after the first force-keeps at least one more reuse, so a compile
   that needs more has a scan that no keep can satisfy. *)
let max_settle_attempts = 64

(* Emission only prepends checkpoint stores to the [Boundary]s of
   existing blocks, so remembering every block's instruction list is
   enough to take it back. *)
let snapshot (p : Cfg.program) =
  List.concat_map
    (fun (f : Cfg.func) -> List.map (fun b -> (b, b.Cfg.instrs)) f.Cfg.blocks)
    p.Cfg.funcs

let restore snap = List.iter (fun ((b : Cfg.block), is) -> b.Cfg.instrs <- is) snap

let compile ?(budget_cycles = default_budget) ?(prune_slices = true)
    ?(prune_reuse = true) ?mode ?obs ?metrics scheme prog =
  ignore (mode : Mode.t option);
  let p = pass ?obs ?metrics prog "copy" (fun () -> Copy.program prog) in
  let pass name f = pass ?obs ?metrics p name f in
  match scheme with
  | Scheme.Nvp -> (p, Meta.empty Scheme.Nvp)
  | Scheme.Ratchet | Scheme.Gecko_noprune | Scheme.Gecko ->
      let next_id = ref 0 in
      pass "regions" (fun () -> ignore (Regions.form ?metrics ~next_id p));
      let overhead = ckpt_overhead_estimate scheme in
      pass "split" (fun () ->
          ignore
            (Split.by_wcet ~next_id ~budget:budget_cycles
               ~ckpt_overhead:overhead p));
      pass "regions2" (fun () -> ignore (Regions.form ?metrics ~next_id p));
      (* [scan] is the settle loop's last window-clobber scan (it found no
         clobbers), which the [slots] gate reads instead of scanning the
         same program again. *)
      let meta, scan =
        match scheme with
        | Scheme.Ratchet -> (pass "emit" (fun () -> Emit.ratchet p), None)
        | Scheme.Gecko | Scheme.Gecko_noprune ->
            let analyze =
              match scheme with
              | Scheme.Gecko ->
                  fun ~force_keep ~memo p cands ->
                    Prune.analyze_with ~force_keep ~memo ~slices:prune_slices
                      ~reuse:prune_reuse p cands
              | Scheme.Gecko_noprune | Scheme.Ratchet | Scheme.Nvp ->
                  fun ~force_keep ~memo _p cands ->
                    ignore (force_keep, memo);
                    Prune.keep_all cands
            in
            (* Static slot safety.  Reuse is optimistic: nothing in
               pruning proves that a reused owner's slot survives the
               reuser's crash window.  The window-clobber scan finds
               every read it does not survive; each becomes a forced
               [Keep] (an owned store, which span colouring gives its
               own colour), and colouring resumes until the scan is
               empty. *)
            let forced = Hashtbl.create 8 in
            let forced_at bid =
              Option.value ~default:Reg.Set.empty (Hashtbl.find_opt forced bid)
            in
            let analyze ~force_keep ~memo p cands =
              analyze
                ~force_keep:(fun bid ->
                  Reg.Set.union (forced_at bid) (force_keep bid))
                ~memo p cands
            in
            let rec settle attempt resume =
              let col =
                pass "coloring" (fun () ->
                    Coloring.assign ?resume ?metrics ~next_id ~analyze p)
              in
              Option.iter
                (fun reg ->
                  Gecko_obs.Metrics.incr ~by:col.Coloring.rounds
                    (Gecko_obs.Metrics.counter reg "pipeline.coloring.rounds"))
                metrics;
              let colored = snapshot p in
              let meta =
                pass "emit" (fun () ->
                    Emit.gecko scheme p col.Coloring.cands
                      col.Coloring.decisions col.Coloring.colors)
              in
              let scan = pass "clobbers" (fun () -> Verify.scan p meta) in
              match Verify.slot_clobbers scan with
              | [] -> (meta, Some scan)
              | clobbers ->
                  let fresh =
                    List.filter
                      (fun (bid, r) -> not (Reg.Set.mem r (forced_at bid)))
                      clobbers
                  in
                  if fresh = [] || attempt >= max_settle_attempts then
                    failwith
                      "Pipeline: window clobbers did not settle under \
                       forced keeps";
                  List.iter
                    (fun (bid, r) ->
                      Hashtbl.replace forced bid (Reg.Set.add r (forced_at bid)))
                    fresh;
                  Option.iter
                    (fun reg ->
                      Gecko_obs.Metrics.incr ~by:(List.length fresh)
                        (Gecko_obs.Metrics.counter reg
                           "pipeline.slot_force_keeps"))
                    metrics;
                  restore colored;
                  settle (attempt + 1) (Some col.Coloring.state)
            in
            settle 1 None
        | Scheme.Nvp -> assert false
      in
      pass "verify" (fun () ->
          fail_on_errors "idempotence" (Verify.idempotence p);
          (match scan with
          | Some scan ->
              fail_on_errors "coloring" (Verify.coloring p meta);
              fail_on_errors "slots" (Verify.slots scan)
          | None -> ());
          fail_on_errors "io_commit" (Verify.io_commit p);
          fail_on_errors "wcet" (Verify.wcet ~budget:budget_cycles p));
      (p, meta)

let checkpoint_store_count p =
  Cfg.count_matching p (function
    | Instr.Ckpt _ | Instr.CkptDyn _ -> true
    | _ -> false)

let boundary_count p =
  Cfg.count_matching p (function Instr.Boundary _ -> true | _ -> false)
