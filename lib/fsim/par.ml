(* Multicore PPSFP: shard the fault universe across domains, each
   running Ppsfp's block loop over its shard with a private kernel.
   The good-machine words of every block are evaluated once up front
   and shared read-only.

   Per-fault results are independent of every other fault (dropping
   only skips already-detected faults), so any deterministic sharding
   merges to exactly the serial answer.  Ppsfp.shards decides the
   shards: it deals whole fanout-free regions round-robin, in
   increasing root order, so each region's root is flipped on one
   domain only, and neighbouring regions (deep random control logic
   against shallow datapath) land on different domains.  Each worker
   writes only its own faults' slots of the shared result arrays, and
   Domain.join publishes the writes. *)

(* Shared domain-spawning driver for both first-detection and
   n-detection grading: run Ppsfp's block loop with drop rule [n] over
   each shard on its own domain, writing into [detections]/[nth], and
   record per-shard wall/imbalance observability under [engine] ("par"
   or "ndetect.par").  [annotate] adds engine-specific span attributes
   inside the top-level span.

   Shard supervision: each shard runs under per-domain exception
   capture (a domain that dies would otherwise take the whole run down
   at [Domain.join]).  A failed shard's faults are reset and the shard
   re-run on a fresh domain up to [max_shard_retries] times; if every
   retry fails it is recomputed serially in the calling domain as a
   deterministic last resort.  Because per-fault results are
   independent and each shard owns a disjoint set of faults,
   recompute-after-reset merges bit-identically with the untouched
   shards.  The ["fsim.par.shard"] failpoint fires once in every
   supervised attempt (never in the serial fallback), after the
   attempt has written its first block's results, so recovery and the
   reset are testable end to end. *)
let shard_failpoint = "fsim.par.shard"

let drive ?(cancel = Robust.Cancel.none) ~engine ?(annotate = ignore)
    ?(max_shard_retries = 1) ?domains ~n c faults patterns =
  let nf = Array.length faults in
  let requested =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  if requested < 1 then invalid_arg "Par: need at least one domain";
  Array.iter (Faults.Fault.check c) faults;
  let domains = max 1 (min requested nf) in
  let detections = Array.make nf 0 in
  let nth = Array.make nf None in
  Instrument.engine_run ~engine ~faults:nf ~patterns:(Array.length patterns)
  @@ fun () ->
  Obs.Trace.add_int "domains" domains;
  annotate ();
  if nf > 0 then begin
    let blocks, goods =
      Obs.Trace.with_span ("fsim." ^ engine ^ ".prepare") (fun () ->
          let blocks =
            Array.of_list (Logicsim.Packed.blocks_of_patterns c patterns)
          in
          ( blocks,
            Array.map
              (fun block ->
                let words = Logicsim.Packed.words c in
                Logicsim.Packed.eval_words c block words;
                words)
              blocks ))
    in
    (* One shared task; every shard walks every block, so the atomic
       counter ends at patterns x domains whatever the interleaving. *)
    let progress =
      Instrument.progress_start ~engine
        ~patterns:(Array.length patterns * domains)
    in
    let observing = Instrument.observing () in
    (* Per-shard wall time and detection counts; each worker writes only
       its own slot, Domain.join publishes the writes (same discipline
       as the result arrays). *)
    let shard_wall = Array.make domains 0.0 in
    let shard_detected = Array.make domains 0 in
    (* Ppsfp.grade reorders and compacts its [alive] array, so every
       attempt grades a fresh copy of its shard. *)
    let shards = Ppsfp.shards c faults ~domains in
    let graded_shard ?on_block i () =
      Obs.Trace.with_span (Printf.sprintf "fsim.%s.shard[%d]" engine i)
        (fun () ->
          let t0 = if observing then Obs.Trace.now_s () else 0.0 in
          let alive = Array.copy shards.(i) in
          let detected =
            Ppsfp.grade ~cancel ?on_block ~engine ~n ~progress c faults ~blocks
              ~good:(Array.get goods) ~alive ~detections ~nth
          in
          if observing then begin
            shard_wall.(i) <- Obs.Trace.now_s () -. t0;
            shard_detected.(i) <- detected;
            Obs.Trace.add_int "faults" (Array.length alive);
            Obs.Trace.add_int "detected" detected
          end)
    in
    let attempt_shard i () =
      let hit = ref false in
      let fail_once () =
        if not !hit then begin
          hit := true;
          Robust.Inject.hit shard_failpoint
        end
      in
      graded_shard ~on_block:fail_once i ();
      fail_once ()
    in
    let reset i =
      Array.iter
        (fun f ->
          detections.(f) <- 0;
          nth.(f) <- None)
        shards.(i)
    in
    let failures = Array.make domains None in
    let captured i () =
      try attempt_shard i () with e -> failures.(i) <- Some e
    in
    let workers =
      Array.init (domains - 1) (fun i -> Domain.spawn (captured (i + 1)))
    in
    captured 0 ();
    Array.iter Domain.join workers;
    let prefix = "fsim." ^ engine in
    Array.iteri
      (fun i failure ->
        match failure with
        | None -> ()
        | Some _ ->
          let rec retry attempt =
            reset i;
            if attempt > max_shard_retries then begin
              (* Serial last resort in the calling domain, without the
                 failpoint: deterministic by construction. *)
              Obs.Metrics.incr (prefix ^ ".shard_fallbacks");
              graded_shard i ()
            end
            else begin
              Obs.Metrics.incr (prefix ^ ".shard_retries");
              match Domain.join (Domain.spawn (attempt_shard i)) with
              | () -> ()
              | exception _ -> retry (attempt + 1)
            end
          in
          retry 1)
      failures;
    Obs.Progress.finish progress;
    if Obs.Metrics.enabled () then begin
      Array.iteri
        (fun i wall ->
          Obs.Metrics.observe (prefix ^ ".shard_wall_s") wall;
          Obs.Metrics.observe (prefix ^ ".shard_detected")
            (float_of_int shard_detected.(i)))
        shard_wall;
      let total = Array.fold_left ( +. ) 0.0 shard_wall in
      let mean = total /. float_of_int domains in
      let slowest = Array.fold_left max 0.0 shard_wall in
      if mean > 0.0 then
        Obs.Metrics.set (prefix ^ ".shard_imbalance") (slowest /. mean)
    end
  end;
  (detections, nth)

let run ?cancel ?domains c faults patterns =
  snd (drive ?cancel ~engine:"par" ?domains ~n:1 c faults patterns)

let run_counts ?cancel ?domains ~n c faults patterns =
  if n < 1 then invalid_arg "Par.run_counts: n must be >= 1";
  drive ?cancel ~engine:"ndetect.par"
    ~annotate:(fun () -> Obs.Trace.add_int "n" n)
    ?domains ~n c faults patterns
