module A = Gecko_analysis

let same_value_over_edge (cands : Candidates.t) r ~(src : Candidates.site)
    ~(dst : Candidates.site) =
  src.Candidates.s_func = dst.Candidates.s_func
  &&
  let fi = src.Candidates.s_func in
  let op = src.Candidates.s_point in
  let sp = dst.Candidates.s_point in
  let ob = op.A.Fgraph.blk in
  (* Reach a block from [from] without passing through [ob] — arriving
     AT [ob] itself is allowed (re-entering the source block is exactly
     how a wrap-around edge reaches a destination at or before the
     source). *)
  let reach_avoiding from dstb =
    Candidates.reaches_avoiding cands fi ~avoid:ob ~from dstb
  in
  (* Is the destination strictly later in the source block?  Then the
     span is the in-block segment; otherwise it wraps the CFG. *)
  let forward_in_block =
    sp.A.Fgraph.blk = ob && sp.A.Fgraph.idx > op.A.Fgraph.idx
  in
  List.for_all
    (fun (dq : A.Fgraph.point) ->
      if forward_in_block then
        (* Only in-block definitions strictly between the points can
           execute on the segment (flow cannot leave mid-block). *)
        not
          (dq.A.Fgraph.blk = ob
          && dq.A.Fgraph.idx > op.A.Fgraph.idx
          && dq.A.Fgraph.idx < sp.A.Fgraph.idx)
      else if dq.A.Fgraph.blk = ob then
        if sp.A.Fgraph.blk = ob then
          (* Wrap-around to a destination at/before the source: defs
             after the source run before leaving the block; defs before
             the destination run on re-entry before arrival. *)
          not
            (dq.A.Fgraph.idx > op.A.Fgraph.idx
            || dq.A.Fgraph.idx < sp.A.Fgraph.idx)
        else
          (* Destination elsewhere: only defs after the source matter
             (re-entering the block re-crosses the source store). *)
          dq.A.Fgraph.idx <= op.A.Fgraph.idx
      else
        let step1 = reach_avoiding ob dq.A.Fgraph.blk in
        let step2 =
          (dq.A.Fgraph.blk = sp.A.Fgraph.blk
          && dq.A.Fgraph.idx < sp.A.Fgraph.idx)
          || reach_avoiding dq.A.Fgraph.blk sp.A.Fgraph.blk
        in
        not (step1 && step2))
    (Candidates.defsites cands fi r)
