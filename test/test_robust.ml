(* Tests for the resilient execution layer (lib/robust) and its
   integration points: cancellation tokens, fault injection, crash-safe
   checkpoints, bit-identical resume for the fault simulators, ATPG and
   the lot tester, shard supervision in the multicore engine, and the
   journal's run_end invariant under injected sink failures. *)

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

let random_patterns ~seed ~count c =
  let rng = Stats.Rng.create ~seed () in
  Tpg.Random_tpg.uniform rng c ~count

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

let fsim_rig =
  lazy
    (let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
     let universe = Faults.Universe.all c in
     let patterns = random_patterns ~seed:42 ~count:192 c in
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
  match
    Fsim.Restart.run ~engine ~every:64 ~resume:true ~checkpoint:path ~seed:42 c
      universe patterns
  with
  | Error msg -> Alcotest.failf "%s: resume failed: %s" name msg
  | Ok out ->
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

let test_restart_mismatch_is_error () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, patterns = Lazy.force fsim_rig in
  (match Fsim.Restart.run ~every:64 ~checkpoint:path ~seed:42 c universe patterns with
  | Ok out -> Alcotest.(check bool) "fresh run completes" true out.Fsim.Restart.completed
  | Error msg -> Alcotest.failf "fresh run failed: %s" msg);
  let fewer = Array.sub patterns 0 128 in
  match
    Fsim.Restart.run ~every:64 ~resume:true ~checkpoint:path ~seed:42 c universe
      fewer
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume with a different pattern count must be rejected"

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
      let baseline = Fsim.Ppsfp.run_counts ~n c universe patterns in
      Robust.Inject.set "fsim.par.shard" trigger;
      let par = Fsim.Par.run_counts ~domains:3 ~n c universe patterns in
      Alcotest.(check bool)
        (Printf.sprintf "retried shards' counts bit-identical at n=%d" n)
        true (par = baseline);
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "%g retries recorded" retries)
        (Some retries)
        (Obs.Metrics.value "fsim.ndetect.par.shard_retries"))
    [ (4, Robust.Inject.At_nth 2, 1.0); (16, Robust.Inject.First_n 3, 3.0) ]

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
  Alcotest.(check bool) "different seed rejected" true
    (try
       ignore (Tpg.Atpg.run ~config:other ~checkpoint:(ckpt true) c universe);
       false
     with Robust.Checkpoint.Mismatch _ -> true)

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

(* ------------------------------------------------------------------ *)
(* Lot-simulation crash + resume                                       *)

let lot_rig =
  lazy
    (let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
     let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
     let universe = Faults.Collapse.representatives classes in
     let rng = Stats.Rng.create ~seed:55 () in
     let patterns = Tpg.Random_tpg.uniform rng c ~count:96 in
     let program = Tester.Pattern_set.of_simulation c universe patterns in
     let lot_rng = Stats.Rng.create ~seed:123 () in
     let lot =
       Fab.Lot.manufacture_ideal ~yield_:0.2 ~n0:4.0
         ~universe_size:(Array.length universe) lot_rng ~count:200
     in
     (c, universe, program, lot))

let test_lot_crash_resume_bit_identical () =
  with_inject @@ fun () ->
  with_tmp @@ fun path ->
  let c, universe, program, lot = Lazy.force lot_rig in
  let baseline = Tester.Wafer_test.test_lot c universe program lot in
  Robust.Inject.set "tester.lot.segment" (Robust.Inject.At_nth 1);
  Alcotest.(check bool) "injected crash propagates" true
    (try
       ignore
         (Tester.Wafer_test.test_lot_restart ~every:64 ~checkpoint:path c
            universe program lot);
       false
     with Robust.Inject.Injected _ -> true);
  Robust.Inject.clear "tester.lot.segment";
  match
    Tester.Wafer_test.test_lot_restart ~every:64 ~resume:true ~checkpoint:path c
      universe program lot
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok run ->
    Alcotest.(check bool) "resumed mid-lot" true
      (run.Tester.Wafer_test.resumed_from > 0
      && run.Tester.Wafer_test.resumed_from < 200);
    Alcotest.(check bool) "completed" true run.Tester.Wafer_test.completed;
    Alcotest.(check bool) "bit-identical lot result" true
      (Tester.Wafer_test.result_of_run program lot run = baseline)

let test_lot_cancelled_prefix_durable () =
  with_tmp @@ fun path ->
  let c, universe, program, lot = Lazy.force lot_rig in
  let t = Robust.Cancel.create () in
  Robust.Cancel.cancel t;
  (match
     Tester.Wafer_test.test_lot_restart ~cancel:t ~every:16 ~checkpoint:path c
       universe program lot
   with
  | Error msg -> Alcotest.failf "cancelled run errored: %s" msg
  | Ok run ->
    Alcotest.(check bool) "incomplete" false run.Tester.Wafer_test.completed;
    Alcotest.(check int) "no dies tested" 0 run.Tester.Wafer_test.dies_done;
    Alcotest.(check bool) "incomplete run has no result" true
      (try
         ignore (Tester.Wafer_test.result_of_run program lot run);
         false
       with Invalid_argument _ -> true));
  (* The empty prefix is durable and resumable to the full answer. *)
  let baseline = Tester.Wafer_test.test_lot c universe program lot in
  match
    Tester.Wafer_test.test_lot_restart ~every:16 ~resume:true ~checkpoint:path c
      universe program lot
  with
  | Error msg -> Alcotest.failf "resume failed: %s" msg
  | Ok run ->
    Alcotest.(check bool) "resume of cancelled run is bit-identical" true
      (Tester.Wafer_test.result_of_run program lot run = baseline)

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
        tc "mismatched resume rejected" test_restart_mismatch_is_error;
        tc "par shard retry recovers" test_par_shard_retry_recovers;
        tc "par shard fallback recovers" test_par_shard_fallback_recovers;
        tc "par counts retry resets owned faults"
          test_par_counts_shard_retry_resets_owned_faults;
        tc "cancelled profile is empty prefix" test_fsim_cancelled_partial_profile ] );
    ( "robust.atpg",
      [ tc "pre-cancelled podem aborts" test_podem_precancelled_aborts;
        tc "checkpoint resume bit-identical" test_atpg_checkpoint_resume_bit_identical;
        tc "mismatched resume raises" test_atpg_checkpoint_mismatch_raises;
        tc "pre-cancelled run counts unknown" test_atpg_precancelled_counts_unknown ] );
    ( "robust.lot",
      [ tc "crash+resume bit-identical" test_lot_crash_resume_bit_identical;
        tc "cancelled prefix durable" test_lot_cancelled_prefix_durable ] );
    ( "robust.journal",
      [ tc "interrupted roundtrip" test_journal_interrupted_roundtrip;
        tc "run_end survives sink failure" test_journal_run_end_survives_sink_failure ] );
    ( "robust.bench",
      [ tc "bad-file corpus" test_bad_bench_corpus;
        tc "crlf accepted" test_crlf_bench_accepted;
        tc "fanin cap" test_bench_fanin_cap;
        tc "const roundtrip" test_bench_const_roundtrip_still_parses ] ) ]
