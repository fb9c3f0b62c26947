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
  let t0 = Sys.time () in
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

(* Speculation guards: the optimistic reuse pass lets a restore read a
   slot owned by a (possibly distant) dominating boundary without
   proving that the slot survives the restore's crash window.  The
   stores that actually endanger a read are exactly the window clobbers
   the {!Verify.slots} scan cannot exempt (most owner re-executions store the identical word —
   loop-invariant re-checkpoints — and need nothing): each of those
   carries a runtime guard, an undo-log append of the slot cell's old
   value.  Rollback replays the log before running restores, so the
   slot reads its as-of-commit value no matter what the crash window
   overwrote.  Guard positions are named on the FINAL (post-emit)
   program as (fname, block label, instr idx) for the linker. *)
let speculation_guards (p : Cfg.program) (meta : Meta.t) =
  Verify.slot_clobbers p meta

let compile ?(budget_cycles = default_budget) ?(prune_slices = true)
    ?(prune_reuse = true) ?(mode = Mode.default) ?obs ?metrics scheme prog =
  let p = pass ?obs ?metrics prog "copy" (fun () -> Copy.program prog) in
  let pass name f = pass ?obs ?metrics p name f in
  match scheme with
  | Scheme.Nvp -> (p, Meta.empty Scheme.Nvp)
  | Scheme.Ratchet | Scheme.Gecko_noprune | Scheme.Gecko ->
      let next_id = ref 0 in
      pass "regions" (fun () -> ignore (Regions.form ~mode ~next_id p));
      let overhead = ckpt_overhead_estimate scheme in
      pass "split" (fun () ->
          ignore
            (Split.by_wcet ~next_id ~budget:budget_cycles
               ~ckpt_overhead:overhead p));
      pass "regions2" (fun () -> ignore (Regions.form ~mode ~next_id p));
      let meta =
        match scheme with
        | Scheme.Ratchet -> pass "emit" (fun () -> Emit.ratchet p)
        | Scheme.Gecko | Scheme.Gecko_noprune ->
            let analyze =
              match scheme with
              | Scheme.Gecko ->
                  fun ~force_keep p cands ->
                    Prune.analyze_with ~force_keep
                      ~sound:(mode = Mode.Speculative) ~slices:prune_slices
                      ~reuse:prune_reuse p cands
              | Scheme.Gecko_noprune | Scheme.Ratchet | Scheme.Nvp ->
                  fun ~force_keep _p cands ->
                    ignore force_keep;
                    Prune.keep_all cands
            in
            let col =
              pass "coloring" (fun () -> Coloring.assign ~next_id ~analyze p)
            in
            Option.iter
              (fun reg ->
                Gecko_obs.Metrics.incr ~by:col.Coloring.rounds
                  (Gecko_obs.Metrics.counter reg "pipeline.coloring.rounds"))
              metrics;
            pass "emit" (fun () ->
                Emit.gecko scheme p col.Coloring.cands col.Coloring.decisions
                  col.Coloring.colors)
        | Scheme.Nvp -> assert false
      in
      (* [Legacy] is the measurement baseline and stops here.  The sound
         pipeline pruned optimistically: enumerate the owned checkpoint
         stores of reused slots on the final program (post-split,
         post-repair, post-emit — positions are the linker's) and record
         them as runtime guards, then certify slots, io commits and the
         undo-log bound in the verify pass. *)
      let meta, sound_gates =
        match mode with
        | Mode.Legacy -> (meta, fun () -> ())
        | Mode.Speculative ->
            let guards = pass "guards" (fun () -> speculation_guards p meta) in
            let meta = { meta with Meta.guards } in
            ( meta,
              fun () ->
                (match scheme with
                | Scheme.Gecko | Scheme.Gecko_noprune ->
                    fail_on_errors "slots" (Verify.slots p meta)
                | Scheme.Ratchet | Scheme.Nvp -> ());
                fail_on_errors "io_commit" (Verify.io_commit p);
                fail_on_errors "speculation"
                  (Verify.speculation ~capacity:Link.Cells.undo_capacity p
                     meta) )
      in
      pass "verify" (fun () ->
          fail_on_errors "idempotence" (Verify.idempotence ~mode p);
          (match scheme with
          | Scheme.Gecko | Scheme.Gecko_noprune ->
              fail_on_errors "coloring" (Verify.coloring p meta)
          | Scheme.Ratchet | Scheme.Nvp -> ());
          sound_gates ();
          fail_on_errors "wcet" (Verify.wcet ~budget:budget_cycles p));
      (p, meta)

let checkpoint_store_count p =
  Cfg.count_matching p (function
    | Instr.Ckpt _ | Instr.CkptDyn _ -> true
    | _ -> false)

let boundary_count p =
  Cfg.count_matching p (function Instr.Boundary _ -> true | _ -> false)
