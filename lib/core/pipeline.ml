open Gecko_isa
module A = Gecko_analysis

let default_budget = 4000

let passes = [ "copy"; "regions"; "split"; "coloring"; "emit"; "clobbers"; "verify" ]

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

(* Bounds of the colour-and-settle loop: colouring rounds per attempt
   (one repair each), and colour-emit-scan attempts per compile.  Every
   attempt after the first force-keeps at least one more reuse, so a
   compile that needs more has a scan that no keep can satisfy. *)
let max_color_rounds = 256
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
            (Regions.split ?metrics ~next_id ~budget:budget_cycles
               ~ckpt_overhead:overhead p));
      (* [scan] is the settle loop's last scan (it found no clobbers),
         which the [coloring] and [slots] gates read instead of analysing
         the same program again. *)
      let meta, scan =
        match scheme with
        | Scheme.Ratchet -> (pass "emit" (fun () -> Emit.ratchet p), None)
        | Scheme.Gecko | Scheme.Gecko_noprune ->
            (* GECKO w/o pruning is GECKO with both mechanisms off. *)
            let slices, reuse =
              match scheme with
              | Scheme.Gecko -> (prune_slices, prune_reuse)
              | Scheme.Gecko_noprune | Scheme.Ratchet | Scheme.Nvp -> (false, false)
            in
            (* Static slot safety.  Reuse is optimistic: nothing in
               pruning proves that a reused owner's slot survives the
               reuser's crash window.  The window-clobber scan finds
               every read it does not survive; each becomes a forced
               [Keep] (an owned store, which span colouring gives its
               own colour), and colouring resumes until the scan is
               empty.

               One loop per compile, over one set of facts, one pruning
               memo, one span walker and one set of colouring rounds.
               A repair boundary neither uses nor defines a register,
               so liveness, clobbers and dominators hold for every
               round, and the reaching definitions and definition sites
               only shift ([Coloring.repair] moves them along); the
               pruning memo (slices per (site, forced keeps), dominator
               chains, no-def verdicts) rests on the same invariants,
               and the walker replays every span walk the repair and
               the changed stores cannot reach.  Emission is undone by
               putting back the physically identical instruction lists,
               on which the liveness tables are keyed, so all of them
               outlive every settle attempt too. *)
            let facts = Candidates.facts p in
            let memo = Prune.memo () in
            let spans = Spans.make facts p in
            let rounds = Coloring.rounds spans in
            (* The reuses the scan found clobbered, force-kept. *)
            let clobbered = Hashtbl.create 8 in
            let clobbered_at bid =
              Option.value ~default:Reg.Set.empty
                (Hashtbl.find_opt clobbered bid)
            in
            (* Forced keeps are passed INTO the analysis, not patched in
               afterwards, so the reuse pass can neither reuse a repair's
               register away (reverting the alternation) nor route
               another site's restore at a slot the repair's own store
               would clobber inside that site's crash window.  A repair
               force-keeps exactly the problematic register (the paper's
               "additional checkpoint that saves the problematic register
               to a different index"); its other live-ins are treated
               normally. *)
            let force_keep bid =
              Reg.Set.union (Coloring.forced rounds bid) (clobbered_at bid)
            in
            let count name n =
              Option.iter
                (fun reg ->
                  Gecko_obs.Metrics.incr ~by:n
                    (Gecko_obs.Metrics.counter reg name))
                metrics
            in
            let rec color round =
              if round > max_color_rounds then
                failwith "Pipeline: slot colouring did not converge";
              let cands = Candidates.compute ~facts p in
              let decisions =
                Prune.analyze_with ~force_keep ~memo ~slices ~reuse cands
              in
              count "pipeline.coloring.rounds" 1;
              match Coloring.try_color rounds cands decisions with
              | Coloring.Colored colors -> (cands, decisions, colors)
              | Coloring.Conflict c ->
                  Coloring.repair rounds ~next_id cands c;
                  color (round + 1)
            in
            let rec settle attempt =
              let cands, decisions, colors =
                pass "coloring" (fun () -> color 0)
              in
              let colored = snapshot p in
              let meta =
                pass "emit" (fun () ->
                    Emit.gecko scheme p cands decisions colors)
              in
              let scan = pass "clobbers" (fun () -> Verify.scan p meta) in
              match Verify.slot_clobbers scan with
              | [] -> (meta, scan)
              | clobbers ->
                  let fresh =
                    List.filter
                      (fun (bid, r) -> not (Reg.Set.mem r (clobbered_at bid)))
                      clobbers
                  in
                  if fresh = [] || attempt >= max_settle_attempts then
                    failwith
                      "Pipeline: window clobbers did not settle under \
                       forced keeps";
                  List.iter
                    (fun (bid, r) ->
                      Hashtbl.replace clobbered bid
                        (Reg.Set.add r (clobbered_at bid)))
                    fresh;
                  count "pipeline.slot_force_keeps" (List.length fresh);
                  restore colored;
                  settle (attempt + 1)
            in
            let meta, scan = settle 1 in
            let sliced, hits = Prune.memo_counts memo in
            let forced_lazies a =
              Array.fold_left (fun n l -> if Lazy.is_val l then n + 1 else n) 0 a
            in
            count "pipeline.reaching.computes" (forced_lazies facts.Candidates.reaching);
            count "pipeline.defsites.computes" (forced_lazies facts.Candidates.defsites);
            count "pipeline.prune.sliced" sliced;
            count "pipeline.prune.slice_memo_hits" hits;
            let walked, reused = Spans.walk_counts spans in
            count "pipeline.spans.walks" walked;
            count "pipeline.spans.walks_reused" reused;
            (meta, Some scan)
        | Scheme.Nvp -> assert false
      in
      pass "verify" (fun () ->
          fail_on_errors "idempotence" (Verify.idempotence p);
          (match scan with
          | Some scan ->
              fail_on_errors "coloring" (Verify.coloring scan);
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
