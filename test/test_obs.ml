(* Tests for the observability subsystem (lib/obs): span tracer and
   metrics registry, their JSON exports, and the determinism of the
   recorded span tree at a fixed seed. *)

(* Every test leaves the global tracer/registry disabled and empty so
   suites that run after this one see the default (no-op) behaviour. *)
let with_obs f =
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Metrics.set_enabled false;
      Obs.Trace.reset ();
      Obs.Metrics.reset ())
    f

let span_names () = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ())

let test_disabled_records_nothing () =
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Alcotest.(check bool) "tracing off" false (Obs.Trace.enabled ());
  let r = Obs.Trace.with_span "ghost" (fun () -> Obs.Trace.add "n" 1.0; 42) in
  Alcotest.(check int) "with_span is transparent" 42 r;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.Trace.spans ()));
  Obs.Metrics.incr "ghost.count";
  Alcotest.(check bool) "no metric recorded" true
    (Obs.Metrics.value "ghost.count" = None)

let test_nesting_and_counters () =
  with_obs @@ fun () ->
  let r =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.add_int "work" 3;
        Obs.Trace.with_span "inner" (fun () -> Obs.Trace.add "w" 0.5);
        Obs.Trace.add_int "work" 4;
        "done")
  in
  Alcotest.(check string) "return value" "done" r;
  match Obs.Trace.spans () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
    Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
    Alcotest.(check int) "outer is root" (-1) outer.Obs.Trace.parent;
    Alcotest.(check int) "inner's parent is outer" outer.Obs.Trace.seq
      inner.Obs.Trace.parent;
    Alcotest.(check bool) "outer closed after open" true
      (outer.Obs.Trace.t1 >= outer.Obs.Trace.t0);
    Alcotest.(check bool) "inner within outer" true
      (inner.Obs.Trace.t0 >= outer.Obs.Trace.t0
      && inner.Obs.Trace.t1 <= outer.Obs.Trace.t1);
    Alcotest.(check (float 1e-9)) "counter accumulates" 7.0
      (List.assoc "work" outer.Obs.Trace.counters);
    Alcotest.(check (float 1e-9)) "inner counter" 0.5
      (List.assoc "w" inner.Obs.Trace.counters)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_closes_on_exception () =
  with_obs @@ fun () ->
  (try Obs.Trace.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  match Obs.Trace.spans () with
  | [ s ] ->
    Alcotest.(check string) "span recorded" "boom" s.Obs.Trace.name;
    Alcotest.(check bool) "span closed" true (s.Obs.Trace.t1 >= s.Obs.Trace.t0)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_reset_clears () =
  with_obs @@ fun () ->
  Obs.Trace.with_span "a" ignore;
  Alcotest.(check int) "one span" 1 (List.length (Obs.Trace.spans ()));
  Obs.Trace.reset ();
  Alcotest.(check int) "reset drops spans" 0 (List.length (Obs.Trace.spans ()));
  Obs.Trace.with_span "b" ignore;
  Alcotest.(check (list string)) "recording continues after reset" [ "b" ]
    (span_names ())

let test_metrics_kinds () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "m.count";
  Obs.Metrics.incr ~by:2.5 "m.count";
  Alcotest.(check (option (float 1e-9))) "counter total" (Some 3.5)
    (Obs.Metrics.value "m.count");
  Obs.Metrics.set "m.gauge" 1.0;
  Obs.Metrics.set "m.gauge" 9.0;
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 9.0)
    (Obs.Metrics.value "m.gauge");
  List.iter (fun v -> Obs.Metrics.observe "m.hist" v) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (option (float 1e-9))) "histogram median" (Some 3.0)
    (Obs.Metrics.quantile "m.hist" 0.5);
  Alcotest.(check (option (float 1e-9))) "histogram max" (Some 5.0)
    (Obs.Metrics.quantile "m.hist" 1.0);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       Obs.Metrics.set "m.count" 1.0;
       false
     with Invalid_argument _ -> true)

let test_metrics_snapshot_json () =
  with_obs @@ fun () ->
  Obs.Metrics.incr "a.count";
  Obs.Metrics.set "b.gauge" 2.0;
  Obs.Metrics.observe "c.hist" 1.0;
  let text = Report.Json.to_string (Obs.Metrics.snapshot ()) in
  match Report.Json.parse text with
  | Error message -> Alcotest.failf "snapshot does not parse: %s" message
  | Ok (Report.Json.Obj fields) ->
    Alcotest.(check (list string)) "sorted metric names"
      [ "a.count"; "b.gauge"; "c.hist" ]
      (List.map fst fields)
  | Ok _ -> Alcotest.fail "snapshot is not an object"

let tiny_circuit () =
  Circuit.Generators.random_circuit ~inputs:10 ~gates:120 ~outputs:6 ~seed:3

(* Each podem.generate span names its fault and verdict next to its
   search effort, so a trace shows which faults cost the time. *)
let test_podem_span_names_fault () =
  let c = Circuit.Generators.c17 () in
  let span_counters ?cancel fault =
    with_obs @@ fun () ->
    let verdict, stats = Tpg.Podem.generate ?cancel c fault in
    match Obs.Trace.spans () with
    | [ s ] when s.Obs.Trace.name = "podem.generate" ->
      (verdict, stats, s.Obs.Trace.counters)
    | spans ->
      Alcotest.failf "expected one podem.generate span, got %d" (List.length spans)
  in
  let check counters expected =
    List.iter
      (fun (key, v) ->
        Alcotest.(check (float 0.0)) key (float_of_int v) (List.assoc key counters))
      expected
  in
  (* Stem fault: G11 (node 6) stuck-at-0, which PODEM tests. *)
  let stem =
    { Faults.Fault.site = Faults.Fault.Stem 6; polarity = Faults.Fault.Stuck_at_0 }
  in
  let verdict, stats, counters = span_counters stem in
  Alcotest.(check bool) "stem fault tested" true
    (match verdict with
    | Tpg.Podem.Test _ -> true
    | Tpg.Podem.Untestable | Tpg.Podem.Aborted -> false);
  check counters
    [ ("backtracks", stats.Tpg.Podem.backtracks);
      ("implications", stats.Tpg.Podem.implications);
      ("site", 6); ("pin", -1); ("stuck", 0); ("aborted", 0); ("untestable", 0) ];
  (* Branch fault: G11's branch into G16 (node 7, pin 1) stuck-at-1,
     under a cancelled token so the verdict is Aborted. *)
  let branch =
    { Faults.Fault.site = Faults.Fault.Branch { gate = 7; pin = 1 };
      polarity = Faults.Fault.Stuck_at_1 }
  in
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.cancel cancel;
  let verdict, _, counters = span_counters ~cancel branch in
  Alcotest.(check bool) "branch fault aborted" true (verdict = Tpg.Podem.Aborted);
  check counters
    [ ("site", 7); ("pin", 1); ("stuck", 1); ("aborted", 1); ("untestable", 0) ]

(* Each podem.generate span counts the gate evaluations its
   implications made, and atpg.podem.gate_evals sums them over a run,
   as it does the backtracks and implications: here on what a traced
   and metered `lsiq atpg -c lsi:4` runs. *)
let test_podem_gate_evals_summed () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let reps =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  with_obs @@ fun () ->
  ignore (Tpg.Atpg.run ~config:{ Tpg.Atpg.default_config with seed = 1981 } c reps);
  let spans =
    List.filter (fun s -> s.Obs.Trace.name = "podem.generate") (Obs.Trace.spans ())
  in
  Alcotest.(check bool) "podem searched" true (spans <> []);
  List.iter
    (fun (arg, metric) ->
      let sum =
        List.fold_left (fun acc s -> acc +. List.assoc arg s.Obs.Trace.counters) 0.0 spans
      in
      Alcotest.(check bool) (arg ^ " counted") true (sum > 0.0);
      Alcotest.(check (option (float 0.0))) (metric ^ " = sum of span " ^ arg)
        (Some sum) (Obs.Metrics.value metric))
    [ ("evals", "atpg.podem.gate_evals");
      ("backtracks", "atpg.podem.backtracks");
      ("implications", "atpg.podem.implications") ]

(* Each SAT proof's span carries its verdict and effort; the run's
   counters are their sums, and [atpg.sat.calls] counts the spans. *)
let test_sat_counters_summed () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let reps =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  with_obs @@ fun () ->
  let report =
    Tpg.Atpg.run ~config:{ Tpg.Atpg.default_config with seed = 1981 } c reps
  in
  let spans =
    List.filter (fun s -> s.Obs.Trace.name = "atpg.sat") (Obs.Trace.spans ())
  in
  let sum arg =
    List.fold_left (fun acc s -> acc +. List.assoc arg s.Obs.Trace.counters) 0.0 spans
  in
  Alcotest.(check (option (float 0.0))) "atpg.sat.calls = spans"
    (Some (float_of_int (List.length spans))) (Obs.Metrics.value "atpg.sat.calls");
  Alcotest.(check bool) "proofs ran" true (spans <> []);
  Alcotest.(check bool) "some proved untestable" true (sum "untestable" > 0.0);
  List.iter
    (fun (arg, metric) ->
      Alcotest.(check (option (float 0.0))) (metric ^ " = sum of span " ^ arg)
        (Some (sum arg)) (Obs.Metrics.value metric))
    [ ("untestable", "atpg.sat.untestable");
      ("conflicts", "atpg.sat.conflicts");
      ("budget_out", "atpg.sat.budget_outs") ];
  (* [atpg.podem.calls] counts searches, not targets: each target
     searched ends with one verdict, and one whose proof runs out of
     conflicts is searched a second time. *)
  let searches =
    List.length
      (List.filter (fun s -> s.Obs.Trace.name = "podem.generate") (Obs.Trace.spans ()))
  in
  let targets =
    report.Tpg.Atpg.untestable + report.Tpg.Atpg.aborted
    + report.Tpg.Atpg.deterministic_patterns
  in
  Alcotest.(check (option (float 0.0))) "atpg.podem.calls = podem spans"
    (Some (float_of_int searches)) (Obs.Metrics.value "atpg.podem.calls");
  Alcotest.(check (float 0.0)) "searches = targets + proofs that ran out"
    (float_of_int targets +. sum "budget_out")
    (float_of_int searches)

let check_spans_present names =
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required names))

let check_counted name =
  Alcotest.(check bool) (name ^ " counted") true
    (match Obs.Metrics.value name with Some v -> v > 0.0 | None -> false)

let test_par_trace_has_shard_spans () =
  let circuit = tiny_circuit () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence circuit (Faults.Universe.all circuit))
  in
  let patterns =
    Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:5 ()) circuit ~count:64
  in
  with_obs @@ fun () ->
  ignore (Fsim.Par.run_counts ~domains:2 ~n:1 circuit universe patterns);
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.tid) (Obs.Trace.spans ()))
  in
  Alcotest.(check (list int)) "two dense domain ids" [ 0; 1 ] tids;
  ignore (Fsim.Par.run_counts ~domains:2 ~n:2 circuit universe patterns);
  ignore (Analysis.Engine.build ~learn_depth:(Some 1) circuit);
  ignore (Analysis.Detectability.analyze (Analysis.Signal_prob.analyze circuit));
  let names = span_names () in
  check_spans_present names
    [ "fsim.par"; "fsim.par.prepare"; "fsim.par.shard[0]"; "fsim.par.shard[1]";
      "fsim.ndetect.par"; "fsim.ndetect.par.prepare";
      "fsim.ndetect.par.shard[0]"; "fsim.ndetect.par.shard[1]";
      "analysis.build"; "analysis.dominators"; "analysis.implications";
      "analysis.prob.signal"; "analysis.prob.observability" ];
  List.iter check_counted
    [ "fsim.par.fault_evals"; "fsim.ndetect.par.fault_evals";
      "analysis.prob.nodes"; "analysis.prob.cut_stems" ];
  (* Exact analysis is opt-in: a default build records no BDD work. *)
  let metrics =
    match Obs.Metrics.snapshot () with
    | Report.Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "metrics snapshot is not an object"
  in
  let bdd = String.starts_with ~prefix:"analysis.bdd." in
  Alcotest.(check (list string)) "no analysis.bdd spans or metrics" []
    (List.filter bdd (names @ metrics));
  (* The trace export must itself be valid JSON that our parser accepts. *)
  match Report.Json.parse (Report.Json.to_string (Obs.Trace.to_chrome_json ())) with
  | Error message -> Alcotest.failf "chrome trace does not parse: %s" message
  | Ok (Report.Json.Obj fields) ->
    Alcotest.(check bool) "has traceEvents" true
      (List.mem_assoc "traceEvents" fields)
  | Ok _ -> Alcotest.fail "chrome trace is not an object"

(* The opt-in side: an exact-analysis build and an equivalence check
   record every analysis.bdd span and metric, and a default budget that
   fits c17 falls back nowhere. *)
let test_exact_trace_has_bdd_spans () =
  let circuit = Circuit.Generators.c17 () in
  with_obs @@ fun () ->
  ignore
    (Analysis.Engine.build ~exact_budget:Analysis.Exact.default_budget circuit);
  ignore (Bdd.Equiv.check circuit circuit);
  check_spans_present (span_names ())
    [ "analysis.bdd.build"; "analysis.bdd.redundancy"; "analysis.bdd.equiv" ];
  List.iter check_counted [ "analysis.bdd.nodes"; "analysis.bdd.cache_lookups" ];
  Alcotest.(check (option (float 0.0))) "no budget fallbacks" (Some 0.0)
    (Obs.Metrics.value "analysis.bdd.budget_fallbacks")

(* Acceptance: span tree *shape* (names and nesting; timestamps and
   counters ignored) must be identical across runs of the same seeded
   workload, including the multicore shard spans. *)
let pipeline_shape () =
  let config =
    { Experiments.Pipeline.default_config with
      scale = 4;
      lot_size = 12;
      fsim_engine = Fsim.Coverage.Par { domains = 2 } }
  in
  with_obs @@ fun () ->
  ignore (Experiments.Pipeline.execute config);
  Obs.Trace.tree_shape ()

let test_tree_shape_deterministic () =
  let shape1 = pipeline_shape () in
  let shape2 = pipeline_shape () in
  Alcotest.(check bool) "shape non-trivial" true
    (String.length shape1 > 0
    && List.exists
         (fun line ->
           line = "d0   pipeline.execute" || line = "d0 pipeline.execute")
         (String.split_on_char '\n' shape1));
  Alcotest.(check string) "identical shape across runs" shape1 shape2

(* ------------------------------ clock ------------------------------ *)

(* The tracer/progress clock must never run backwards, monotonic stub
   or gettimeofday fallback alike (the fallback is CAS-monotonized). *)
let test_clock_never_backwards () =
  let check_mono name now =
    let prev = ref (now ()) in
    for i = 1 to 10_000 do
      let t = now () in
      if t < !prev then
        Alcotest.failf "%s went backwards at call %d: %.17g < %.17g" name i t
          !prev;
      prev := t
    done
  in
  check_mono "Clock.now_s" Obs.Clock.now_s;
  check_mono "Trace.now_s" Obs.Trace.now_s

(* --------------------------- histograms ---------------------------- *)

let test_histogram_quantile_edges () =
  with_obs @@ fun () ->
  (* n = 1: every quantile is the lone sample. *)
  Obs.Metrics.observe "one.hist" 7.0;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "n=1 q=%g" q)
        (Some 7.0)
        (Obs.Metrics.quantile "one.hist" q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* All-equal samples: quantiles collapse to the common value. *)
  for _ = 1 to 10 do Obs.Metrics.observe "flat.hist" 3.0 done;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "all-equal q=%g" q)
        (Some 3.0)
        (Obs.Metrics.quantile "flat.hist" q))
    [ 0.5; 0.99 ]

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_histogram_reservoir_label () =
  with_obs @@ fun () ->
  for i = 1 to 5000 do
    Obs.Metrics.observe "big.hist" (float_of_int i)
  done;
  (match Obs.Metrics.snapshot () with
  | Report.Json.Obj [ ("big.hist", Report.Json.Obj fields) ] ->
    Alcotest.(check bool) "count is total" true
      (List.assoc "count" fields = Report.Json.Int 5000);
    Alcotest.(check bool) "reservoir is capped" true
      (List.assoc "reservoir" fields = Report.Json.Int 4096);
    Alcotest.(check bool) "p99 present and numeric" true
      (match List.assoc "p99" fields with
      | Report.Json.Float _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "unexpected snapshot shape");
  let text = Obs.Metrics.render_text () in
  Alcotest.(check bool) "render labels the reservoir" true
    (contains "(quantiles over 4096/5000 samples)" text)

(* ---------------------------- GC deltas ---------------------------- *)

(* with_gc_delta accumulates as counters: a second call with the same
   prefix adds its churn instead of overwriting the first call's. *)
let test_gc_delta_accumulates () =
  with_obs @@ fun () ->
  (* Many small allocations (blocks past Max_young_wosize would go
     straight to the major heap), then a forced minor collection:
     quick_stat's allocation totals only refresh at GC points. *)
  let churn () =
    for i = 1 to 10_000 do
      ignore (Sys.opaque_identity (ref i))
    done;
    Gc.minor ()
  in
  Obs.Metrics.with_gc_delta "gc.test" churn;
  let first =
    match Obs.Metrics.value "gc.test.minor_words" with
    | Some v -> v
    | None -> Alcotest.fail "minor_words counter missing"
  in
  Alcotest.(check bool) "first call counts churn" true (first > 0.0);
  Obs.Metrics.with_gc_delta "gc.test" churn;
  let second =
    match Obs.Metrics.value "gc.test.minor_words" with
    | Some v -> v
    | None -> Alcotest.fail "minor_words counter missing after second call"
  in
  Alcotest.(check bool) "second call accumulates" true
    (second >= first +. 1000.0)

(* ----------------------------- journal ----------------------------- *)

let with_journal f =
  Obs.Journal.reset ();
  Obs.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.set_enabled false;
      Obs.Journal.detach ();
      Obs.Journal.reset ();
      Obs.Progress.set_enabled false;
      Obs.Progress.configure ~interval_s:0.5 ~printer:None ())
    f

let emit_sample_events () =
  Obs.Journal.run_start ~argv:[| "lsiq"; "test" |] ~seed:42 ~circuit:"c17" ();
  Obs.Journal.progress ~label:"fsim.test" ~task:1 ~items:64 ~total:128
    ~rate:12.5 ~eta_s:5.125 ();
  Obs.Journal.progress ~label:"pipeline" ~stage:"atpg" ~task:0 ~items:4
    ~total:9 ~rate:0.0 ();
  Obs.Journal.metrics_snapshot
    (Report.Json.Obj [ ("x.count", Report.Json.Int 1) ]);
  Obs.Journal.headline "coverage" (Report.Json.Float 0.875);
  Obs.Journal.headline "coverage" (Report.Json.Float 0.9);
  Obs.Journal.run_end ~outcome:(Obs.Journal.Failed "boom")

let test_journal_event_roundtrip () =
  with_journal @@ fun () ->
  emit_sample_events ();
  let events = Obs.Journal.tail () in
  Alcotest.(check int) "five events" 5 (List.length events);
  List.iteri
    (fun i e ->
      match Obs.Journal.event_of_json (Obs.Journal.event_to_json e) with
      | Ok e' ->
        Alcotest.(check bool)
          (Printf.sprintf "event %d round-trips" i)
          true (e = e')
      | Error message -> Alcotest.failf "event %d: %s" i message)
    events;
  (* The repeated headline key replaced the earlier value in place. *)
  match List.rev events with
  | Obs.Journal.Run_end { outcome = Obs.Journal.Failed "boom"; results; _ } :: _
    ->
    Alcotest.(check bool) "headline replaced in place" true
      (List.assoc_opt "coverage" results = Some (Report.Json.Float 0.9)
      && List.length results = 1)
  | _ -> Alcotest.fail "last event is not the failed run_end"

let test_journal_file_roundtrip () =
  let path = Filename.temp_file "lsiq_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (with_journal @@ fun () ->
   Obs.Journal.attach ~path;
   emit_sample_events ());
  match Obs.Journal.read_file path with
  | Error message -> Alcotest.failf "journal does not re-parse: %s" message
  | Ok events ->
    Alcotest.(check int) "five events on disk" 5 (List.length events);
    let starts =
      List.filter
        (function Obs.Journal.Run_start _ -> true | _ -> false)
        events
    in
    let ends =
      List.filter (function Obs.Journal.Run_end _ -> true | _ -> false) events
    in
    Alcotest.(check int) "one run_start" 1 (List.length starts);
    Alcotest.(check int) "one run_end" 1 (List.length ends);
    Alcotest.(check bool) "run_start first, run_end last" true
      ((match events with Obs.Journal.Run_start _ :: _ -> true | _ -> false)
      &&
      match List.rev events with
      | Obs.Journal.Run_end _ :: _ -> true
      | _ -> false);
    (* A summary of the parsed stream renders and names the pieces. *)
    let summary = Obs.Journal.render_summary events in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("summary mentions " ^ needle) true
          (contains needle summary))
      [ "lsiq test"; "c17"; "fsim.test"; "boom" ]

(* Unthrottled journal streams: items never go backwards within a
   (label, task), and a single-threaded loop's stream is deterministic
   at fixed seed.  Which intermediate counts the two Par shards publish
   depends on their interleaving, so Par is checked for monotonicity
   only. *)
let journaled_fsim () =
  with_journal @@ fun () ->
  Obs.Progress.configure ~interval_s:0.0 ~printer:None ();
  Obs.Progress.set_enabled true;
  let circuit = tiny_circuit () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence circuit (Faults.Universe.all circuit))
  in
  let patterns =
    Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:5 ()) circuit ~count:192
  in
  ignore (Fsim.Par.run_counts ~domains:2 ~n:1 circuit universe patterns);
  ignore (Fsim.Ppsfp.run circuit universe patterns);
  List.filter_map
    (function
      | Obs.Journal.Progress { label; task; items; total; _ } ->
        Some (label, task, items, total)
      | _ -> None)
    (Obs.Journal.tail ())

let test_journal_progress_deterministic () =
  let stream1 = journaled_fsim () in
  let stream2 = journaled_fsim () in
  let serial stream =
    List.filter_map
      (fun (label, _, items, total) ->
        if label = "fsim.ppsfp" then Some (items, total) else None)
      stream
  in
  Alcotest.(check bool) "par stream non-empty" true
    (List.exists (fun (label, _, _, _) -> label = "fsim.par") stream1);
  Alcotest.(check bool) "serial stream non-empty" true (serial stream1 <> []);
  let monotone =
    let last = Hashtbl.create 4 in
    List.for_all
      (fun (label, task, items, _) ->
        let ok =
          match Hashtbl.find_opt last (label, task) with
          | Some prev -> items >= prev
          | None -> true
        in
        Hashtbl.replace last (label, task) items;
        ok)
      stream1
  in
  Alcotest.(check bool) "items monotone per task" true monotone;
  Alcotest.(check bool) "serial stream identical across runs" true
    (serial stream1 = serial stream2)

(* ----------------------- disabled-path costs ----------------------- *)

(* With every obs subsystem off, stepping a progress task must not
   allocate: 100k steps may move the minor-heap counter only by the
   handful of words the measurement itself boxes, never by a per-step
   amount. *)
let test_disabled_progress_allocates_nothing () =
  Alcotest.(check bool) "progress disabled" false (Obs.Progress.enabled ());
  let t = Obs.Progress.start ~label:"ghost" ~total:1_000_000 () in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Progress.step t 1
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "no per-step allocation (delta %.0f words)" delta)
    true (delta < 64.0)

(* The packed kernel flips each fanout-free-region root once per block
   for all of its alive faults: a run flips at least one root and never
   more roots than it evaluates alive faults, in the metric and on
   every span that counts both, and the flips evaluate some gates.  A
   flip stops at the first output that sees it: when every root is an
   output, no flip evaluates a gate. *)
let test_root_flips_counted () =
  let c = Circuit.Generators.lsi_chip ~seed:1981 ~scale:4 () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let patterns = Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:4 ()) c ~count:256 in
  with_obs @@ fun () ->
  ignore (Fsim.Ppsfp.run c universe patterns);
  ignore (Fsim.Par.run_counts ~domains:2 ~n:4 c universe patterns);
  List.iter
    (fun engine ->
      let metric name =
        Option.value ~default:0.0
          (Obs.Metrics.value (Printf.sprintf "fsim.%s.%s" engine name))
      in
      let flips = metric "root_flips" and evals = metric "fault_evals" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 < root_flips (%g) <= fault_evals (%g)" engine flips
           evals)
        true
        (0.0 < flips && flips <= evals);
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 < flip_evals (%g)" engine (metric "flip_evals"))
        true
        (0.0 < metric "flip_evals"))
    [ "ppsfp"; "ndetect.par" ];
  List.iter
    (fun s ->
      let counter name =
        Option.value ~default:0.0 (List.assoc_opt name s.Obs.Trace.counters)
      in
      if List.mem_assoc "fault_evals" s.Obs.Trace.counters then
        Alcotest.(check bool)
          (s.Obs.Trace.name ^ ": root_flips <= fault_evals")
          true
          (counter "root_flips" <= counter "fault_evals"))
    (Obs.Trace.spans ());
  (* [g1 = AND(a, b)] is an output and feeds [g2 = OR(g1, c)], also an
     output: both roots are outputs. *)
  let module B = Circuit.Netlist.Builder in
  let b = B.create ~name:"output_roots" in
  let a = B.add_input b "a" in
  let b_in = B.add_input b "b" in
  let c_in = B.add_input b "c" in
  let g1 = B.add_gate b Circuit.Gate.And [ a; b_in ] in
  let g2 = B.add_gate b Circuit.Gate.Or [ g1; c_in ] in
  List.iter (B.mark_output b) [ g1; g2 ];
  let c = B.build b in
  let exhaustive =
    Array.init 8 (fun v -> Array.init 3 (fun i -> (v lsr i) land 1 = 1))
  in
  with_obs @@ fun () ->
  ignore (Fsim.Ppsfp.run c (Faults.Universe.all c) exhaustive);
  let metric name =
    Option.value ~default:0.0 (Obs.Metrics.value ("fsim.ppsfp." ^ name))
  in
  Alcotest.(check bool)
    (Printf.sprintf "output roots: 0 < root_flips (%g)" (metric "root_flips"))
    true
    (0.0 < metric "root_flips");
  Alcotest.(check (float 0.0)) "output roots: flip_evals" 0.0 (metric "flip_evals")

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "obs",
      [ tc "disabled records nothing" test_disabled_records_nothing;
        tc "nesting and counters" test_nesting_and_counters;
        tc "span closes on exception" test_span_closes_on_exception;
        tc "reset clears" test_reset_clears;
        tc "metrics kinds" test_metrics_kinds;
        tc "metrics snapshot json" test_metrics_snapshot_json;
        tc "par trace has shard spans" test_par_trace_has_shard_spans;
        tc "root flips counted" test_root_flips_counted;
        tc "exact trace has bdd spans" test_exact_trace_has_bdd_spans;
        tc "podem span names its fault" test_podem_span_names_fault;
        tc "podem gate evaluations summed" test_podem_gate_evals_summed;
        tc "sat proof counters summed" test_sat_counters_summed;
        tc "tree shape deterministic" test_tree_shape_deterministic;
        tc "clock never backwards" test_clock_never_backwards;
        tc "histogram quantile edges" test_histogram_quantile_edges;
        tc "histogram reservoir label" test_histogram_reservoir_label;
        tc "gc delta accumulates" test_gc_delta_accumulates;
        tc "journal event roundtrip" test_journal_event_roundtrip;
        tc "journal file roundtrip" test_journal_file_roundtrip;
        tc "journal progress deterministic" test_journal_progress_deterministic;
        tc "disabled progress allocates nothing"
          test_disabled_progress_allocates_nothing ] ) ]
