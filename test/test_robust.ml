(* Tests for the resilient execution layer (lib/robust) and its
   integration points: cancellation tokens, fault injection, crash-safe
   checkpoints, bit-identical resume for the fault simulators, ATPG and
   the lot pipeline (through its ATPG stage), shard supervision in the
   multicore engine, and the journal's run_end invariant under injected
   sink failures. *)

module F = Faults.Fault

let tmp_ckpt () = Filename.temp_file "lsiq_test_ckpt" ".json"

let with_tmp f =
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Failpoints and the metrics registry are global; leave both clean for
   whichever suite runs next. *)
let with_inject f =
  Robust.Inject.reset ();
  Fun.protect ~finally:Robust.Inject.reset f

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Cancellation tokens                                                 *)

let test_cancel_basics () =
  Alcotest.(check bool) "none never fires" false
    (Robust.Cancel.stop_requested Robust.Cancel.none);
  let t = Robust.Cancel.create () in
  Alcotest.(check bool) "fresh token idle" false (Robust.Cancel.stop_requested t);
  Alcotest.(check bool) "no reason yet" true (Robust.Cancel.reason t = None);
  Robust.Cancel.cancel t;
  Alcotest.(check bool) "fires after cancel" true (Robust.Cancel.stop_requested t);
  Alcotest.(check bool) "requested reason" true
    (Robust.Cancel.reason t = Some Robust.Cancel.Requested);
  (* First reason wins. *)
  Robust.Cancel.cancel ~reason:(Robust.Cancel.Signal 2) t;
  Alcotest.(check bool) "first reason wins" true
    (Robust.Cancel.reason t = Some Robust.Cancel.Requested);
  Alcotest.(check bool) "none is not cancellable" true
    (try
       Robust.Cancel.cancel Robust.Cancel.none;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive deadline rejected" true
    (try
       ignore (Robust.Cancel.create ~deadline_s:0.0 ());
       false
     with Invalid_argument _ -> true);
  let t = Robust.Cancel.after_polls 3 in
  let polls = List.init 4 (fun _ -> Robust.Cancel.stop_requested t) in
  Alcotest.(check (list bool)) "fires on the third poll and stays fired"
    [ false; false; true; true ] polls;
  Alcotest.(check bool) "poll count: requested reason" true
    (Robust.Cancel.reason t = Some Robust.Cancel.Requested);
  Alcotest.(check bool) "poll count below 1 rejected" true
    (try
       ignore (Robust.Cancel.after_polls 0);
       false
     with Invalid_argument _ -> true)

(* NaN fails every comparison, so a check written as [b <= 0.0] would
   let it through as "no budget"; each entry point must reject it. *)
let test_nan_budgets_rejected () =
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let c = Circuit.Generators.c17 () in
  raises "Cancel.create ~deadline_s:nan" (fun () ->
      Robust.Cancel.create ~deadline_s:Float.nan ());
  raises "Podem.generate ~time_budget_s:nan" (fun () ->
      Tpg.Podem.generate ~time_budget_s:Float.nan c
        { F.site = F.Stem 0; polarity = F.Stuck_at_0 });
  raises "Random_tpg.until_coverage ~target:nan" (fun () ->
      Tpg.Random_tpg.until_coverage (Stats.Rng.create ~seed:1 ()) c
        (Faults.Universe.all c) ~target:Float.nan ~max_patterns:64)

let test_cancel_deadline_trips () =
  let t = Robust.Cancel.create ~deadline_s:0.005 () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if Robust.Cancel.stop_requested t then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "deadline token never fired"
    else begin
      ignore (Unix.select [] [] [] 0.002);
      wait ()
    end
  in
  wait ();
  Alcotest.(check bool) "deadline reason" true
    (Robust.Cancel.reason t = Some Robust.Cancel.Deadline)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let test_inject_triggers () =
  with_inject @@ fun () ->
  let fired name = try Robust.Inject.hit name; false with Robust.Inject.Injected n ->
    Alcotest.(check string) "exception names the failpoint" name n;
    true
  in
  Robust.Inject.set "p.nth" (Robust.Inject.At_nth 2);
  Alcotest.(check bool) "nth: 1st hit passes" false (fired "p.nth");
  Alcotest.(check bool) "nth: 2nd hit fires" true (fired "p.nth");
  Alcotest.(check bool) "nth: 3rd hit passes" false (fired "p.nth");
  Alcotest.(check int) "hits counted" 3 (Robust.Inject.hits "p.nth");
  Robust.Inject.set "p.first" (Robust.Inject.First_n 2);
  Alcotest.(check bool) "first: 1st fires" true (fired "p.first");
  Alcotest.(check bool) "first: 2nd fires" true (fired "p.first");
  Alcotest.(check bool) "first: 3rd passes" false (fired "p.first");
  Robust.Inject.clear "p.first";
  Alcotest.(check bool) "cleared point passes" false (fired "p.first");
  (* Unarmed points are free and uncounted. *)
  Robust.Inject.hit "p.unarmed";
  Alcotest.(check int) "unarmed not counted" 0 (Robust.Inject.hits "p.unarmed")

let test_inject_parse_spec () =
  let ok spec =
    match Robust.Inject.parse_spec spec with
    | Ok entries -> entries
    | Error msg -> Alcotest.failf "spec %S rejected: %s" spec msg
  in
  Alcotest.(check bool) "nth entry" true
    (ok "a.b=nth:3" = [ ("a.b", Robust.Inject.At_nth 3) ]);
  Alcotest.(check int) "multi entry" 2 (List.length (ok "a=first:1,b=nth:2"));
  (match ok "x=prob:0.5:7" with
  | [ ("x", Robust.Inject.Probability { p; seed }) ] ->
    Alcotest.(check (float 1e-9)) "prob p" 0.5 p;
    Alcotest.(check int) "prob seed" 7 seed
  | _ -> Alcotest.fail "prob entry shape");
  List.iter
    (fun bad ->
      match Robust.Inject.parse_spec bad with
      | Ok _ -> Alcotest.failf "spec %S accepted" bad
      | Error _ -> ())
    [ "nonsense"; "a=nth:zero"; "a=nth:0"; "a=prob:2.0"; "=nth:1" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint files                                                    *)

let test_checkpoint_roundtrip () =
  with_tmp @@ fun path ->
  let meta =
    Robust.Checkpoint.meta ~kind:"t" ~fields:[ ("n", Report.Json.Int 3) ]
  in
  let payload = [ Report.Json.String "a"; Report.Json.Int 1 ] in
  Robust.Checkpoint.save ~path ~meta ~payload;
  (match Robust.Checkpoint.load ~path with
  | Ok (m, p) ->
    Alcotest.(check bool) "meta preserved" true (m = meta);
    Alcotest.(check bool) "payload preserved" true (p = payload);
    Alcotest.(check bool) "identity validates" true
      (Robust.Checkpoint.validate ~kind:"t"
         ~expect:[ ("n", Report.Json.Int 3) ] m
      = Ok ());
    Alcotest.(check bool) "kind mismatch caught" true
      (Robust.Checkpoint.validate ~kind:"other" ~expect:[] m
       |> Result.is_error);
    Alcotest.(check bool) "field mismatch caught" true
      (Robust.Checkpoint.validate ~kind:"t"
         ~expect:[ ("n", Report.Json.Int 4) ] m
       |> Result.is_error)
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Alcotest.(check bool) "missing file is Error" true
    (Robust.Checkpoint.load ~path:(path ^ ".does-not-exist") |> Result.is_error)

let test_checkpoint_crash_keeps_previous () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let meta = Robust.Checkpoint.meta ~kind:"t" ~fields:[] in
  Robust.Checkpoint.save ~path ~meta ~payload:[ Report.Json.Int 1 ];
  Robust.Inject.set "checkpoint.save" (Robust.Inject.First_n 1);
  Alcotest.(check bool) "armed save raises Injected" true
    (try
       Robust.Checkpoint.save ~path ~meta ~payload:[ Report.Json.Int 2 ];
       false
     with Robust.Inject.Injected _ -> true);
  match Robust.Checkpoint.load ~path with
  | Ok (_, [ Report.Json.Int 1 ]) -> ()
  | Ok _ -> Alcotest.fail "previous checkpoint was clobbered"
  | Error msg -> Alcotest.failf "previous checkpoint unreadable: %s" msg

(* ------------------------------------------------------------------ *)
(* Fault-simulation crash + resume                                     *)

(* Checkpoint state edits, applied to a real checkpoint's state line one
   at a time: [resume ()] must accept the state as saved and raise
   [Mismatch] on every edit. *)
let set_field key value state = (key, value) :: List.remove_assoc key state

let set_entry key fault value state =
  match List.assoc_opt key state with
  | Some (Report.Json.List l) ->
    set_field key
      (Report.Json.List
         (List.mapi (fun i d -> if i = fault then Report.Json.Int value else d) l))
      state
  | _ -> Alcotest.failf "checkpoint has no %s" key

let set_detection = set_entry "first_detection"

let check_impossible_states_rejected ~path ~resume edits =
  let meta, state =
    match Robust.Checkpoint.load ~path with
    | Ok (meta, [ Report.Json.Obj state ]) -> (meta, state)
    | _ -> Alcotest.fail "checkpoint unreadable"
  in
  let rewrite state =
    Robust.Checkpoint.save ~path ~meta ~payload:[ Report.Json.Obj state ]
  in
  List.iter
    (fun (name, edit) ->
      rewrite (edit state);
      Alcotest.(check bool) (name ^ " rejected") true
        (try
           resume ();
           false
         with Robust.Checkpoint.Mismatch _ -> true))
    edits;
  rewrite state;
  resume ()

let fsim_rig =
  lazy
    (let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
     let universe = Faults.Universe.all c in
     let patterns = Oracle.random_patterns ~seed:42 ~count:192 c in
     (c, universe, patterns))

let check_restart_bit_identical name engine =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let baseline = Fsim.Coverage.profile ~engine c universe patterns in
  (* Crash after the first 64-pattern segment is durable... *)
  Robust.Inject.set "fsim.restart.segment" (Robust.Inject.At_nth 1);
  Alcotest.(check bool) (name ^ ": injected crash propagates") true
    (try
       ignore
         (Fsim.Restart.run ~engine ~every:64 ~checkpoint:path ~seed:42 c
            universe patterns);
       false
     with Robust.Inject.Injected _ -> true);
  Robust.Inject.clear "fsim.restart.segment";
  (* ...then resume and demand the uninterrupted answer, bit for bit. *)
  let out =
    Fsim.Restart.run ~engine ~every:64 ~resume:true ~checkpoint:path ~seed:42 c
      universe patterns
  in
  Alcotest.(check bool) (name ^ ": resumed mid-run") true
    (out.Fsim.Restart.resumed_from > 0
    && out.Fsim.Restart.resumed_from < Array.length patterns);
  Alcotest.(check bool) (name ^ ": completed") true out.Fsim.Restart.completed;
  Alcotest.(check bool) (name ^ ": bit-identical profile") true
    (out.Fsim.Restart.profile = baseline)

let test_restart_serial () = check_restart_bit_identical "serial" Fsim.Coverage.Serial
let test_restart_ppsfp () = check_restart_bit_identical "ppsfp" Fsim.Coverage.Parallel

let test_restart_par () =
  check_restart_bit_identical "par" (Fsim.Coverage.Par { domains = 2 })

let test_restart_mismatch_raises () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let out = Fsim.Restart.run ~every:64 ~checkpoint:path ~seed:42 c universe patterns in
  Alcotest.(check bool) "fresh run completes" true out.Fsim.Restart.completed;
  let fewer = Array.sub patterns 0 128 in
  Alcotest.(check bool) "different pattern count rejected" true
    (try
       ignore
         (Fsim.Restart.run ~every:64 ~resume:true ~checkpoint:path ~seed:42 c
            universe fewer);
       false
     with Robust.Checkpoint.Mismatch _ -> true)

(* A checkpoint cut after the first 64-pattern segment: no detection
   may lie at or past pattern 64, and at most the run's 192 patterns can
   be done. *)
let test_restart_impossible_state_rejected () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let run resume =
    Fsim.Restart.run ~every:64 ~resume ~checkpoint:path ~seed:42 c universe
      patterns
  in
  Robust.Inject.set "fsim.restart.segment" (Robust.Inject.At_nth 1);
  (try ignore (run false) with Robust.Inject.Injected _ -> ());
  Robust.Inject.clear "fsim.restart.segment";
  check_impossible_states_rejected ~path
    ~resume:(fun () -> ignore (run true))
    [ ("patterns_done past the pattern count",
       set_field "patterns_done" (Report.Json.Int 193));
      ("negative patterns_done", set_field "patterns_done" (Report.Json.Int (-64)));
      ("detection at patterns_done", set_detection 0 64);
      ("detection past every pattern", set_detection 0 999_999);
      ("detection below -1", set_detection 0 (-2)) ]

(* A real n = 16 checkpoint cut after 64 patterns, edited one field at
   a time into a state no run can reach. *)
let test_restart_impossible_counts_rejected () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let n = 16 in
  let run resume =
    Fsim.Restart.run ~every:64 ~resume ~n ~checkpoint:path ~seed:42 c universe
      patterns
  in
  Robust.Inject.set "fsim.restart.segment" (Robust.Inject.At_nth 1);
  (try ignore (run false) with Robust.Inject.Injected _ -> ());
  Robust.Inject.clear "fsim.restart.segment";
  let counts =
    match Robust.Checkpoint.load ~path with
    | Ok (_, [ Report.Json.Obj state ]) -> (
      match List.assoc_opt "detections" state with
      | Some (Report.Json.List l) ->
        List.map (function Report.Json.Int k -> k | _ -> -1) l
      | _ -> Alcotest.fail "n-detect checkpoint has no detections")
    | _ -> Alcotest.fail "checkpoint unreadable"
  in
  (* A fault detected at least once but fewer than n times. *)
  let partial =
    match List.find_index (fun k -> 0 < k && k < n) counts with
    | Some i -> i
    | None -> Alcotest.fail "no fault detected fewer than n times"
  in
  check_impossible_states_rejected ~path
    ~resume:(fun () -> ignore (run true))
    [ ("count above n", set_entry "detections" partial (n + 1));
      ("n-th detection without n counts", set_entry "nth_detection" partial 3);
      ("positive count with no first detection", set_detection partial (-1));
      ("detection at patterns_done", set_entry "nth_detection" partial 64) ]

let test_par_shard_retry_recovers () =
  with_inject @@ fun () ->
  with_metrics @@ fun () ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let baseline = Fsim.Coverage.profile ~engine:Fsim.Coverage.Parallel c universe patterns in
  Robust.Inject.set "fsim.par.shard" (Robust.Inject.At_nth 2);
  let par =
    Fsim.Coverage.profile ~engine:(Fsim.Coverage.Par { domains = 3 }) c universe
      patterns
  in
  Alcotest.(check bool) "single shard failure recovers bit-identically" true
    (par = baseline);
  Alcotest.(check (option (float 1e-9))) "one retry recorded" (Some 1.0)
    (Obs.Metrics.value "fsim.par.shard_retries")

(* The failpoint fires after the failed attempt has written its first
   block's counts, so only a reset of exactly the faults that shard
   owns (those of every third fanout-free region) reproduces the
   single-domain answer: a reset that missed them would double-count,
   one that hit another shard's faults would lose its counts.  At
   n = 16 only some of a shard's faults drop in that block, so a failed
   attempt leaves its alive array compacted; with every shard failing
   once, each retry must grade, and reset, a fresh copy of its shard. *)
let test_par_counts_shard_retry_resets_owned_faults () =
  with_inject @@ fun () ->
  with_metrics @@ fun () ->
  let c, universe, patterns = Lazy.force fsim_rig in
  List.iter
    (fun (n, trigger, retries) ->
      Obs.Metrics.reset ();
      let baseline = Oracle.run_counts ~n c universe patterns in
      Robust.Inject.set "fsim.par.shard" trigger;
      let par = Fsim.Par.run_counts ~domains:3 ~n c universe patterns in
      Alcotest.(check bool)
        (Printf.sprintf "retried shards' counts bit-identical at n=%d" n)
        true (par = baseline);
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "%g retries recorded" retries)
        (Some retries)
        (Obs.Metrics.value "fsim.ndetect.par.shard_retries"))
    [ (4, Robust.Inject.At_nth 2, 1.0); (16, Robust.Inject.First_n 3, 3.0) ];
  (* On a state that earlier patterns have seeded, a retried shard must
     put its faults back to what they held before the attempt, not to
     zero. *)
  let n = 16 and rest = Array.sub patterns 64 (Array.length patterns - 64) in
  let seeded () =
    let st = Fsim.Coverage.state ~n (Array.length universe) in
    ignore (Fsim.Coverage.extend c universe st ~offset:0 (Array.sub patterns 0 64));
    st
  in
  let baseline = seeded () in
  ignore (Fsim.Coverage.extend c universe baseline ~offset:64 rest);
  Obs.Metrics.reset ();
  Robust.Inject.set "fsim.par.shard" (Robust.Inject.First_n 3);
  let par = seeded () in
  ignore
    (Fsim.Coverage.extend ~engine:(Fsim.Coverage.Par { domains = 3 }) c universe
       par ~offset:64 rest);
  Alcotest.(check bool) "retried shards restore a seeded state" true (par = baseline);
  Alcotest.(check (option (float 1e-9))) "3 retries recorded" (Some 3.0)
    (Obs.Metrics.value "fsim.ndetect.par.shard_retries")

let test_par_shard_fallback_recovers () =
  with_inject @@ fun () ->
  with_metrics @@ fun () ->
  let c, universe, patterns = Lazy.force fsim_rig in
  let baseline = Fsim.Coverage.profile ~engine:Fsim.Coverage.Parallel c universe patterns in
  (* All three initial shard attempts fail, and the first retry fails
     too: that shard exhausts its retry budget and must fall back to a
     deterministic serial recompute.  The other two recover on retry. *)
  Robust.Inject.set "fsim.par.shard" (Robust.Inject.First_n 4);
  let par =
    Fsim.Coverage.profile ~engine:(Fsim.Coverage.Par { domains = 3 }) c universe
      patterns
  in
  Alcotest.(check bool) "fallback recovers bit-identically" true (par = baseline);
  Alcotest.(check (option (float 1e-9))) "three retries recorded" (Some 3.0)
    (Obs.Metrics.value "fsim.par.shard_retries");
  Alcotest.(check (option (float 1e-9))) "one fallback recorded" (Some 1.0)
    (Obs.Metrics.value "fsim.par.shard_fallbacks")

let test_fsim_cancelled_partial_profile () =
  let c, universe, patterns = Lazy.force fsim_rig in
  let t = Robust.Cancel.create () in
  Robust.Cancel.cancel t;
  let p = Fsim.Coverage.profile ~cancel:t c universe patterns in
  Alcotest.(check int) "universe still sized" (Array.length universe)
    p.Fsim.Coverage.universe_size;
  Alcotest.(check bool) "pre-cancelled run grades nothing" true
    (Array.for_all (fun d -> d = None) p.Fsim.Coverage.first_detection)

(* ------------------------------------------------------------------ *)
(* PODEM / ATPG                                                        *)

let test_podem_precancelled_aborts () =
  let c = Circuit.Generators.c17 () in
  let fault = { F.site = F.Stem 0; polarity = F.Stuck_at_0 } in
  let t = Robust.Cancel.create () in
  Robust.Cancel.cancel t;
  let verdict, stats = Tpg.Podem.generate ~cancel:t c fault in
  Alcotest.(check bool) "aborted, not an exception" true
    (verdict = Tpg.Podem.Aborted);
  Alcotest.(check int) "no search performed" 0 stats.Tpg.Podem.backtracks

let atpg_config =
  (* random_budget = 0 forces every fault through the deterministic
     phase, so the checkpoint actually accumulates per-target state. *)
  { Tpg.Atpg.default_config with random_budget = 0; backtrack_limit = 200 }

let test_atpg_checkpoint_resume_bit_identical () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let baseline = Tpg.Atpg.run ~config:atpg_config c universe in
  Alcotest.(check int) "uncancelled run has no unknowns" 0
    baseline.Tpg.Atpg.unknown;
  (* Crash on the third snapshot: the first is the upfront save, so the
     checkpoint holds a strict prefix of the deterministic phase. *)
  Robust.Inject.set "checkpoint.save" (Robust.Inject.At_nth 3);
  let ckpt resume = { Tpg.Atpg.path; every = 2; resume } in
  Alcotest.(check bool) "injected crash propagates" true
    (try
       ignore (Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt false) c universe);
       false
     with Robust.Inject.Injected _ -> true);
  Robust.Inject.clear "checkpoint.save";
  let resumed = Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt true) c universe in
  Alcotest.(check bool) "bit-identical report" true (resumed = baseline)

let test_atpg_checkpoint_mismatch_raises () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let ckpt resume = { Tpg.Atpg.path; every = 4; resume } in
  ignore (Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt false) c universe);
  let other = { atpg_config with seed = atpg_config.Tpg.Atpg.seed + 1 } in
  let rejected config =
    try
      ignore (Tpg.Atpg.run ~config ~checkpoint:(ckpt true) c universe);
      false
    with Robust.Checkpoint.Mismatch _ -> true
  in
  Alcotest.(check bool) "different seed rejected" true (rejected other);
  (* The identity still names the hybrid mode that is gone, so a file a
     hybrid run wrote stays refused. *)
  (match Robust.Checkpoint.load ~path with
  | Ok (Report.Json.Obj meta, payload) ->
    Robust.Checkpoint.save ~path
      ~meta:(Report.Json.Obj (set_field "hybrid" (Report.Json.Bool true) meta))
      ~payload
  | _ -> Alcotest.fail "checkpoint unreadable");
  Alcotest.(check bool) "hybrid checkpoint rejected" true (rejected atpg_config)

(* A checkpoint that lacks a detection by one of its own extra patterns,
   as one written by a build that graded each PODEM pattern against the
   unprocessed targets only does, still resumes to the uninterrupted
   report: the resume grades the extra patterns once more. *)
let test_atpg_resume_regrades_extra () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let baseline = Tpg.Atpg.run ~config:atpg_config c universe in
  let ckpt resume = { Tpg.Atpg.path; every = 2; resume } in
  Robust.Inject.set "checkpoint.save" (Robust.Inject.At_nth 3);
  Alcotest.(check bool) "injected crash propagates" true
    (try
       ignore (Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt false) c universe);
       false
     with Robust.Inject.Injected _ -> true);
  Robust.Inject.clear "checkpoint.save";
  let meta, state =
    match Robust.Checkpoint.load ~path with
    | Ok (meta, [ Report.Json.Obj state ]) -> (meta, state)
    | _ -> Alcotest.fail "checkpoint unreadable"
  in
  (* No random patterns, so every detection is by an extra pattern. *)
  let detected =
    match List.assoc_opt "first_detection" state with
    | Some (Report.Json.List l) ->
      List.find_index (function Report.Json.Int d -> d >= 0 | _ -> false) l
    | _ -> None
  in
  let fault =
    match detected with
    | Some fault -> fault
    | None -> Alcotest.fail "checkpoint holds no detection"
  in
  Robust.Checkpoint.save ~path ~meta
    ~payload:[ Report.Json.Obj (set_detection fault (-1) state) ];
  let resumed =
    Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt true) c universe
  in
  Alcotest.(check bool) "bit-identical report" true (resumed = baseline)

(* A complete checkpoint of the deterministic phase (no random
   patterns): every count, pattern width and detection index it holds is
   bounded by the run that wrote it. *)
let test_atpg_impossible_state_raises () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let ckpt resume = { Tpg.Atpg.path; every = 4; resume } in
  let report = Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt false) c universe in
  let patterns = Array.length report.Tpg.Atpg.patterns in
  let map_extra f state =
    match List.assoc_opt "extra" state with
    | Some (Report.Json.List l) ->
      set_field "extra"
        (Report.Json.List
           (List.map
              (function Report.Json.String p -> Report.Json.String (f p) | j -> j)
              l))
        state
    | _ -> Alcotest.fail "checkpoint has no extra patterns"
  in
  check_impossible_states_rejected ~path
    ~resume:(fun () ->
      ignore (Tpg.Atpg.run ~config:atpg_config ~checkpoint:(ckpt true) c universe))
    [ ("detection at the pattern count", set_detection 0 patterns);
      ("detection past every pattern", set_detection 0 999_999);
      ("detection below -1", set_detection 0 (-2));
      ("extra patterns one bit short",
       map_extra (fun p -> String.sub p 0 (String.length p - 1)));
      ("extra pattern not binary",
       map_extra (fun p -> "2" ^ String.sub p 1 (String.length p - 1)));
      ("negative untestable", set_field "untestable" (Report.Json.Int (-1)));
      ("negative aborted", set_field "aborted" (Report.Json.Int (-5)));
      ("verdicts without processed targets",
       set_field "processed" (Report.Json.Int 0));
      ("processed past the target count",
       set_field "processed" (Report.Json.Int (Array.length universe + 1))) ]

let test_atpg_precancelled_counts_unknown () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let t = Robust.Cancel.create () in
  Robust.Cancel.cancel t;
  let r = Tpg.Atpg.run ~config:atpg_config ~cancel:t c universe in
  Alcotest.(check int) "no deterministic patterns" 0
    r.Tpg.Atpg.deterministic_patterns;
  Alcotest.(check int) "every target unresolved" (Array.length universe)
    r.Tpg.Atpg.unknown

(* lsi:4 as [lsiq atpg -c lsi:4] runs it: collapsed faults, seed 1981. *)
let lsi4 =
  lazy
    (let c = Circuit.Generators.lsi_chip ~scale:4 () in
     let universe =
       Faults.Collapse.representatives
         (Faults.Collapse.equivalence c (Faults.Universe.all c))
     in
     let config = { Tpg.Atpg.default_config with seed = 1981 } in
     (c, universe, config, Tpg.Atpg.run ~config c universe))

(* Write the committed checkpoint [golden] to [path] and resume [c]'s
   run from it. *)
let resume_golden ~path ~config c universe golden =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_text golden In_channel.input_all));
  Tpg.Atpg.run ~config
    ~checkpoint:{ Tpg.Atpg.path; every = 16; resume = true }
    c universe

let refused_with ~prefix run =
  try
    ignore (run ());
    false
  with Robust.Checkpoint.Mismatch msg -> String.starts_with ~prefix msg

(* A checkpoint written before aborted targets got a SAT proof carries
   no proof mark.  The committed lsi:4 one with no abort (16 targets)
   holds only patterns this build gives the same targets, so it resumes
   to the uninterrupted report and is saved again with the mark; the one
   an older build wrote after 65 targets, one of them aborted, is
   refused with a message that says why. *)
let test_atpg_unmarked_checkpoint () =
  with_tmp @@ fun path ->
  let c, universe, config, baseline = Lazy.force lsi4 in
  let resume = resume_golden ~path ~config c universe in
  Alcotest.(check bool) "no abort: resumes to the uninterrupted report" true
    (resume "expected/atpg_lsi4_ckpt.json" = baseline);
  Alcotest.(check bool) "saved again with the mark" true
    (match Robust.Checkpoint.load ~path with
    | Ok (_, [ Report.Json.Obj state ]) ->
      List.assoc_opt "proof" state = Some (Report.Json.String "sat-model")
    | Ok _ | Error _ -> false);
  Alcotest.(check bool) "an abort: refused" true
    (refused_with ~prefix:"checkpoint predates the SAT proof" (fun () ->
         resume "expected/atpg_lsi4_ckpt_abort.json"))

(* A checkpoint written between the SAT proof and its models carries
   [("proof", "sat")].  The committed lsi:5 one, the final save of such
   a build, holds no abort, but its pattern 111 comes from a full search
   where this build takes the proof's model: refused, and the refusal
   names the pattern.  The same state counting an abort is refused
   whatever its patterns. *)
let test_atpg_checkpoint_other_pattern () =
  with_tmp @@ fun path ->
  let c = Circuit.Generators.lsi_chip ~scale:5 () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let config = { Tpg.Atpg.default_config with seed = 1981 } in
  let golden = "expected/atpg_lsi5_ckpt_sat.json" in
  Alcotest.(check bool) "another pattern: refused" true
    (refused_with
       ~prefix:
         "checkpoint predates taking a SAT proof's model as its target's test, \
          and this build would not give its pattern 111 "
       (fun () -> resume_golden ~path ~config c universe golden));
  (match Robust.Checkpoint.load ~path:golden with
  | Ok (meta, [ Report.Json.Obj state ]) ->
    Robust.Checkpoint.save ~path ~meta
      ~payload:[ Report.Json.Obj (set_field "aborted" (Report.Json.Int 1) state) ]
  | _ -> Alcotest.fail "checkpoint unreadable");
  Alcotest.(check bool) "an abort: refused" true
    (refused_with
       ~prefix:"checkpoint predates taking a SAT proof's model as its target's test \
                and counts 1 aborted"
       (fun () ->
         Tpg.Atpg.run ~config
           ~checkpoint:{ Tpg.Atpg.path; every = 16; resume = true }
           c universe))

(* A cancel that fires inside a SAT proof leaves its target without a
   verdict, as one inside a PODEM search does: unknown, and retried on
   resume.  The proof polls the token once per conflict it learns from,
   so a proof settled by propagation alone polls it never.  The smallest
   poll count at which a run opens its [n]-th proof is that proof's
   first poll, if it has one; bisection over the count finds it for
   [n] = 1, 2, ... until a proof has one. *)
let test_atpg_cancel_inside_proof () =
  with_tmp @@ fun path ->
  let c, universe, config, baseline = Lazy.force lsi4 in
  (* A run cut at its [k]-th poll, and the proofs it opened in order. *)
  let cut ?checkpoint k =
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true;
    let report =
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled false)
        (fun () ->
          Tpg.Atpg.run ~config ~cancel:(Robust.Cancel.after_polls k) ?checkpoint c
            universe)
    in
    let proofs =
      List.filter (fun s -> s.Obs.Trace.name = "atpg.sat") (Obs.Trace.spans ())
      |> List.sort (fun a b -> compare a.Obs.Trace.seq b.Obs.Trace.seq)
    in
    Obs.Trace.reset ();
    (report, proofs)
  in
  let opened k = List.length (snd (cut k)) in
  let total = opened max_int in
  (* [opened lo < n]; the smallest count that opens [n] proofs. *)
  let rec first_opening n lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if opened mid >= n then first_opening n lo mid else first_opening n mid hi
  in
  let rec inside n lo =
    if n > total then Alcotest.fail "no proof of lsi:4 polls the token"
    else begin
      let rec upper k = if opened k >= n then k else upper (2 * k) in
      let k = first_opening n lo (upper (2 * lo)) in
      let proofs = snd (cut k) in
      let last = List.nth proofs (List.length proofs - 1) in
      if List.assoc_opt "budget_out" last.Obs.Trace.counters = Some 1.0 then (k, last)
      else inside (n + 1) k
    end
  in
  (* The first poll is the one before the first target. *)
  let k, proof = inside 1 1 in
  Alcotest.(check (option (float 0.0))) "cut at the proof's first conflict" (Some 1.0)
    (List.assoc_opt "conflicts" proof.Obs.Trace.counters);
  let checkpoint resume = { Tpg.Atpg.path; every = 1; resume } in
  let report, _ = cut ~checkpoint:(checkpoint false) k in
  (* Uncut, the proof cut here would settle its target with its model:
     counted aborted, the target would read 1. *)
  Alcotest.(check int) "its target has no verdict" 0 report.Tpg.Atpg.aborted;
  Alcotest.(check bool) "it is unknown" true (report.Tpg.Atpg.unknown > 0);
  Alcotest.(check bool) "resume = uninterrupted run" true
    (Tpg.Atpg.run ~config ~checkpoint:(checkpoint true) c universe = baseline)

(* A time budget bounds a target's whole search.  One of 1 ns is spent
   before the first search's first decision, so that search aborts, the
   proof runs, and nothing is left for a second search: PODEM and the
   proof are each called once per target searched, and every verdict and
   every deterministic pattern is the proof's. *)
let test_atpg_podem_budget_bounds_both_searches () =
  with_metrics @@ fun () ->
  let c, universe, config, _ = Lazy.force lsi4 in
  let report =
    Tpg.Atpg.run ~config:{ config with podem_time_budget_s = Some 1e-9 } c universe
  in
  let metric name = Option.value ~default:0.0 (Obs.Metrics.value name) in
  Alcotest.(check bool) "targets searched" true (metric "atpg.sat.calls" > 0.0);
  Alcotest.(check (float 0.0)) "one search per target" (metric "atpg.sat.calls")
    (metric "atpg.podem.calls");
  Alcotest.(check (float 0.0)) "every verdict from the proof"
    (metric "atpg.sat.calls")
    (float_of_int
       (report.Tpg.Atpg.untestable + report.Tpg.Atpg.aborted
      + report.Tpg.Atpg.deterministic_patterns));
  Alcotest.(check (float 0.0)) "every pattern a proof's model"
    (metric "atpg.sat.calls" -. metric "atpg.sat.untestable"
    -. metric "atpg.sat.budget_outs")
    (float_of_int report.Tpg.Atpg.deterministic_patterns)

(* ------------------------------------------------------------------ *)
(* Lot-simulation crash + resume                                       *)

module Pipeline = Experiments.Pipeline

(* simulate-lot --scale 4 --chips 60: its ATPG stage is where the time
   goes, so it is the stage the lot checkpoint covers. *)
let lot_config = { Pipeline.default_config with scale = 4; lot_size = 60 }

let lot_baseline = lazy (Pipeline.execute lot_config)

let check_same_lot name (resumed : Pipeline.run) =
  let baseline = Lazy.force lot_baseline in
  Alcotest.(check bool) (name ^ ": same ATPG report") true
    (resumed.atpg_report = baseline.atpg_report);
  Alcotest.(check bool) (name ^ ": same program") true
    (resumed.program = baseline.program);
  Alcotest.(check bool) (name ^ ": same lot outcome") true
    (resumed.outcome = baseline.outcome)

let lot_ckpt path resume = { Tpg.Atpg.path; every = 16; resume }

let test_lot_crash_resume_bit_identical () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  ignore (Lazy.force lot_baseline);
  (* Crash on the third snapshot: the upfront save and the one after 16
     targets are durable, a strict prefix of the deterministic phase. *)
  Robust.Inject.set "checkpoint.save" (Robust.Inject.At_nth 3);
  Alcotest.(check bool) "injected crash propagates" true
    (try
       ignore (Pipeline.execute ~checkpoint:(lot_ckpt path false) lot_config);
       false
     with Robust.Inject.Injected _ -> true);
  Robust.Inject.clear "checkpoint.save";
  Alcotest.(check bool) "checkpoint holds 16 targets" true
    (match Robust.Checkpoint.load ~path with
    | Ok (_, [ Report.Json.Obj state ]) ->
      List.assoc_opt "processed" state = Some (Report.Json.Int 16)
    | Ok _ | Error _ -> false);
  check_same_lot "crash+resume"
    (Pipeline.execute ~checkpoint:(lot_ckpt path true) lot_config)

let test_lot_cancelled_prefix_durable () =
  with_tmp @@ fun path ->
  let baseline = Lazy.force lot_baseline in
  (* The ATPG of the same run (the pipeline seeds it with seed + 1), cut
     by a token that has already fired: no target gets a verdict, and
     the empty deterministic prefix is what the checkpoint holds. *)
  let t = Robust.Cancel.create () in
  Robust.Cancel.cancel t;
  let cut =
    Tpg.Atpg.run
      ~config:{ lot_config.atpg with seed = lot_config.seed + 1 }
      ~cancel:t ~checkpoint:(lot_ckpt path false) baseline.circuit
      baseline.universe
  in
  Alcotest.(check bool) "cut before any verdict" true
    (cut.Tpg.Atpg.unknown > 0 && cut.Tpg.Atpg.deterministic_patterns = 0);
  check_same_lot "cancelled+resume"
    (Pipeline.execute ~checkpoint:(lot_ckpt path true) lot_config)

(* A token that fires inside the lot or the test stage stops it after
   the chip in hand: [execute] raises [Interrupted] and never returns a
   run built from a cut stage.  The progress printer fires the token,
   at the lot's first chip or at the test stage's tick. *)
let test_lot_cancelled_inside_a_stage () =
  let cut_at trigger =
    let cancel = Robust.Cancel.create () and chips = ref 0 in
    let printer line =
      if String.starts_with ~prefix:"progress: fab.lot " line then incr chips;
      if trigger line then Robust.Cancel.cancel cancel
    in
    Obs.Progress.configure ~interval_s:0.0 ~printer:(Some printer) ();
    Obs.Progress.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Progress.set_enabled false;
        Obs.Progress.configure ~interval_s:0.5 ~printer:None ())
      (fun () ->
        match Pipeline.execute ~cancel lot_config with
        | _ -> Alcotest.fail "a cancelled run returned"
        | exception Pipeline.Interrupted _ -> !chips)
  in
  let chips = cut_at (String.starts_with ~prefix:"progress: fab.lot ") in
  Alcotest.(check bool) "lot stopped before its last chip" true
    (chips < lot_config.lot_size);
  ignore (cut_at (String.ends_with ~suffix:"] test\n"))

(* ------------------------------------------------------------------ *)
(* Journal under failure                                               *)

let test_journal_interrupted_roundtrip () =
  let e =
    Obs.Journal.Run_end
      { t_s = 1.25; outcome = Obs.Journal.Interrupted; results = [] }
  in
  match Obs.Journal.event_of_json (Obs.Journal.event_to_json e) with
  | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg

let count_events events =
  List.fold_left
    (fun (starts, ends) e ->
      match e with
      | Obs.Journal.Run_start _ -> (starts + 1, ends)
      | Obs.Journal.Run_end _ -> (starts, ends + 1)
      | _ -> (starts, ends))
    (0, 0) events

let test_journal_run_end_survives_sink_failure () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  Obs.Journal.set_sink_hook (fun () -> Robust.Inject.hit "journal.sink");
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.set_sink_hook (fun () -> ());
      Obs.Journal.set_enabled false;
      Obs.Journal.detach ())
  @@ fun () ->
  Obs.Journal.attach ~path;
  Obs.Journal.set_enabled true;
  (* The first sink write — run_start — fails.  The CLI's recovery path
     must still produce exactly one run_end with the right outcome. *)
  Robust.Inject.set "journal.sink" (Robust.Inject.First_n 1);
  Alcotest.(check bool) "sink failure propagates to the emitter" true
    (try
       Obs.Journal.run_start ~argv:[| "test" |] ();
       false
     with Robust.Inject.Injected _ -> true);
  Obs.Journal.run_end ~outcome:Obs.Journal.Interrupted;
  let starts, ends = count_events (Obs.Journal.tail ()) in
  Alcotest.(check int) "exactly one run_start in the ring" 1 starts;
  Alcotest.(check int) "exactly one run_end in the ring" 1 ends;
  (match List.rev (Obs.Journal.tail ()) with
  | Obs.Journal.Run_end { outcome = Obs.Journal.Interrupted; _ } :: _ -> ()
  | _ -> Alcotest.fail "last ring event is not the interrupted run_end");
  Obs.Journal.detach ();
  (* The file sink missed the failed write but holds the run_end. *)
  match Obs.Journal.read_file path with
  | Error msg -> Alcotest.failf "journal file unreadable: %s" msg
  | Ok events ->
    let starts, ends = count_events events in
    Alcotest.(check int) "file lost the failed run_start write" 0 starts;
    Alcotest.(check int) "file holds exactly one run_end" 1 ends

(* ------------------------------------------------------------------ *)
(* Hardened .bench parsing: the bad-file corpus                        *)

let corpus_path file =
  List.find Sys.file_exists
    [ Filename.concat "bad_bench" file; Filename.concat "test/bad_bench" file ]

let test_bad_bench_corpus () =
  (* file, expected 1-based line of the parse error *)
  let cases =
    [ ("truncated.bench", 3);
      ("trailing_garbage.bench", 3);
      ("non_ascii.bench", 3);
      ("bad_name.bench", 2);
      ("dup_output.bench", 3);
      ("dup_define.bench", 5);
      ("bad_arity.bench", 4);
      ("empty.bench", 1);
      ("empty_arg.bench", 3);
      ("unknown_gate.bench", 3);
      ("undefined_signal.bench", 3) ]
  in
  List.iter
    (fun (file, expect_line) ->
      match Circuit.Bench_format.parse_file (corpus_path file) with
      | _ -> Alcotest.failf "%s was accepted" file
      | exception Circuit.Bench_format.Parse_error { line; _ } ->
        Alcotest.(check int) (file ^ " error line") expect_line line
      | exception e ->
        Alcotest.failf "%s escaped with a raw exception: %s" file
          (Printexc.to_string e))
    cases

let test_crlf_bench_accepted () =
  let c = Circuit.Bench_format.parse_file (corpus_path "crlf_ok.bench") in
  Alcotest.(check int) "one input" 1 (Array.length c.Circuit.Netlist.inputs);
  Alcotest.(check int) "one output" 1 (Array.length c.Circuit.Netlist.outputs)

let test_bench_fanin_cap () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "OUTPUT(g)\n";
  for i = 1 to 4097 do
    Buffer.add_string buf (Printf.sprintf "INPUT(i%d)\n" i)
  done;
  Buffer.add_string buf "g = AND(";
  for i = 1 to 4097 do
    if i > 1 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "i%d" i)
  done;
  Buffer.add_string buf ")\n";
  Alcotest.(check bool) "4097-input gate rejected" true
    (try
       ignore (Circuit.Bench_format.parse_string (Buffer.contents buf));
       false
     with Circuit.Bench_format.Parse_error { line = 4099; _ } -> true)

let test_bench_const_roundtrip_still_parses () =
  let src = "INPUT(a)\nOUTPUT(b)\nz = CONST0()\nb = OR(a, z)\n" in
  let c = Circuit.Bench_format.parse_string src in
  let c2 = Circuit.Bench_format.parse_string (Circuit.Bench_format.to_string c) in
  Alcotest.(check string) "printed form stable"
    (Circuit.Bench_format.to_string c)
    (Circuit.Bench_format.to_string c2)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "robust.cancel",
      [ tc "token basics" test_cancel_basics;
        tc "deadline trips" test_cancel_deadline_trips;
        tc "NaN budgets rejected" test_nan_budgets_rejected ] );
    ( "robust.inject",
      [ tc "triggers" test_inject_triggers;
        tc "spec parsing" test_inject_parse_spec ] );
    ( "robust.checkpoint",
      [ tc "save/load/validate" test_checkpoint_roundtrip;
        tc "crashed save keeps previous" test_checkpoint_crash_keeps_previous ] );
    ( "robust.fsim",
      [ tc "serial crash+resume bit-identical" test_restart_serial;
        tc "ppsfp crash+resume bit-identical" test_restart_ppsfp;
        tc "par crash+resume bit-identical" test_restart_par;
        tc "mismatched resume rejected" test_restart_mismatch_raises;
        tc "impossible checkpoint state rejected"
          test_restart_impossible_state_rejected;
        tc "impossible n-detect checkpoint rejected"
          test_restart_impossible_counts_rejected;
        tc "par shard retry recovers" test_par_shard_retry_recovers;
        tc "par shard fallback recovers" test_par_shard_fallback_recovers;
        tc "par counts retry resets owned faults"
          test_par_counts_shard_retry_resets_owned_faults;
        tc "cancelled profile is empty prefix" test_fsim_cancelled_partial_profile ] );
    ( "robust.atpg",
      [ tc "pre-cancelled podem aborts" test_podem_precancelled_aborts;
        tc "checkpoint resume bit-identical" test_atpg_checkpoint_resume_bit_identical;
        tc "mismatched resume raises" test_atpg_checkpoint_mismatch_raises;
        tc "impossible checkpoint state raises" test_atpg_impossible_state_raises;
        tc "resume regrades the extra patterns" test_atpg_resume_regrades_extra;
        tc "pre-cancelled run counts unknown" test_atpg_precancelled_counts_unknown;
        tc "unmarked checkpoint resumes only without aborts"
          test_atpg_unmarked_checkpoint;
        tc "older checkpoint with another pattern refused"
          test_atpg_checkpoint_other_pattern;
        tc "cancel inside a proof leaves the target unknown"
          test_atpg_cancel_inside_proof;
        tc "podem budget bounds both searches"
          test_atpg_podem_budget_bounds_both_searches ] );
    ( "robust.lot",
      [ tc "crash+resume bit-identical" test_lot_crash_resume_bit_identical;
        tc "cancelled prefix durable" test_lot_cancelled_prefix_durable;
        tc "cancelled inside a stage" test_lot_cancelled_inside_a_stage ] );
    ( "robust.journal",
      [ tc "interrupted roundtrip" test_journal_interrupted_roundtrip;
        tc "run_end survives sink failure" test_journal_run_end_survives_sink_failure ] );
    ( "robust.bench",
      [ tc "bad-file corpus" test_bad_bench_corpus;
        tc "crlf accepted" test_crlf_bench_accepted;
        tc "fanin cap" test_bench_fanin_cap;
        tc "const roundtrip" test_bench_const_roundtrip_still_parses ] ) ]
