(* Benchmark and experiment-regeneration harness.

   Usage:  main.exe [target ...]
   Targets: fig1 fig2 fig3 fig4 fig5 fig6 table1 comparison fineline
            ablation signature stafan drift economics wafer par analyze
            ndetect micro all
            (default: all)
   Special: `par [FILE]` / `par-smoke [FILE [HISTORY]]` sweep the
   multicore fault-simulation engine, write BENCH_fsim.json (or FILE)
   and append a run block to the bench history (BENCH_history.jsonl or
   HISTORY); `diff HISTORY [CURRENT]` compares the latest same-host
   entries with noise-aware thresholds and exits 1 on regression;
   `obs-smoke [FILE [JOURNAL]]` runs one tiny traced iteration,
   validates the emitted Chrome trace JSON (BENCH_trace_smoke.json by
   default) and hard-asserts the --journal event sequence;
   `csv DIR` exports the analytic figure series.

   Every figure and table of the paper's evaluation is regenerated and
   printed; `micro` additionally runs one Bechamel measurement per
   experiment plus substrate micro-benchmarks. *)

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 74 '=') title (String.make 74 '=')

(* The Fig. 5 / Table 1 experiments share one end-to-end pipeline run;
   compute it at most once per invocation. *)
let pipeline_run = lazy (Experiments.Pipeline.execute Experiments.Pipeline.default_config)

let run_fig1 () =
  section "Fig. 1 - field reject rate vs fault coverage (Eq. 8)";
  print_string (Experiments.Fig1.render ())

let run_fig n name reject =
  section (Printf.sprintf "Fig. %d - required coverage vs yield (r = %g)" n reject);
  print_string (Experiments.Fig2_3_4.render_figure ~name ~reject)

let run_fig234_checkpoints () =
  let rows =
    List.map
      (fun (label, paper, ours) ->
        [ label; Report.Table.float_cell paper; Report.Table.float_cell ours ])
      (Experiments.Fig2_3_4.checkpoints ())
  in
  print_string
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Right; Right ]
       ~headers:[ "checkpoint"; "paper"; "reproduced" ]
       rows)

let run_fig5 () =
  section "Fig. 5 - determination of n0 from experimental data";
  let run = Lazy.force pipeline_run in
  print_string (Experiments.Pipeline.summary run);
  print_newline ();
  print_string (Experiments.Fig5.render ~run ())

let run_fig6 () =
  section "Fig. 6 - approximations for q0(n)";
  print_string (Experiments.Fig6.render ())

let run_table1 () =
  section "Table 1 - result of chip test (paper vs simulated lot)";
  let run = Lazy.force pipeline_run in
  print_string (Experiments.Table1.render ~run ())

let run_comparison () =
  section "Section 7 - comparison with the Wadsack baseline";
  print_string (Experiments.Comparison.render ())

let run_fineline () =
  section "Section 8 - fine-line technology study";
  print_string (Experiments.Fineline.render ())

let run_ablation () =
  section "Ablation studies";
  print_string (Experiments.Ablation.render ())

let run_signature () =
  section "Signature compaction - MISR aliasing vs register width";
  let circuit = Circuit.Generators.alu ~bits:3 in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let rng = Stats.Rng.create ~seed:2 () in
  let patterns = Tpg.Random_tpg.uniform rng circuit ~count:64 in
  let rows =
    List.map
      (fun width ->
        let misr = Tester.Signature.create ~width in
        let r = Tester.Signature.aliasing_study misr circuit universe patterns in
        [ string_of_int width;
          string_of_int r.Tester.Signature.detected_by_compare;
          string_of_int r.Tester.Signature.aliased;
          Printf.sprintf "%.4f" r.Tester.Signature.aliasing_rate;
          Printf.sprintf "%.4f" (2.0 ** float_of_int (-width)) ])
      [ 2; 4; 8; 16 ]
  in
  print_string
    (Report.Table.render
       ~headers:[ "MISR width"; "detected"; "aliased"; "rate"; "2^-w" ] rows);
  Printf.printf
    "\neffective reject rate at f = 0.90 (y = 0.07, n0 = 8): compare %.5f | \
     w=8 MISR %.5f | w=16 MISR %.5f\n"
    (Quality.Reject.reject_rate ~yield_:0.07 ~n0:8.0 0.9)
    (Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0 ~signature_width:8 0.9)
    (Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0 ~signature_width:16 0.9)

let run_stafan () =
  section "STAFAN ablation - statistical coverage prediction vs fault simulation";
  let circuit = Circuit.Generators.lsi_chip ~scale:6 () in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let rng = Stats.Rng.create ~seed:31 () in
  let patterns = Tpg.Random_tpg.uniform rng circuit ~count:256 in
  let st = Fsim.Stafan.analyze circuit patterns in
  let profile = Fsim.Coverage.profile circuit universe patterns in
  let rows =
    List.map
      (fun k ->
        [ string_of_int k;
          Report.Table.float_cell ~decimals:4 (Fsim.Coverage.coverage_after profile k);
          Report.Table.float_cell ~decimals:4
            (Fsim.Stafan.expected_coverage st universe ~pattern_count:k) ])
      [ 4; 16; 64; 256 ]
  in
  print_string
    (Report.Table.render
       ~headers:[ "patterns"; "fault simulation"; "STAFAN estimate" ] rows);
  Printf.printf
    "\nSTAFAN costs one logic-simulation pass; the fault simulator graded %d faults.\n"
    (Array.length universe)

let run_drift () =
  section "Process-drift study - per-lot estimation under dispersion";
  print_string (Experiments.Drift.render ())

let run_economics () =
  section "Economics extension - optimal coverage vs cost ratio";
  print_string (Experiments.Economics_study.render ())

let run_wafer () =
  section "Wafer map demo (spatial defect model)";
  let rng = Stats.Rng.create ~seed:11 () in
  let yield_model =
    Fab.Yield_model.create
      ~defect_density:(Fab.Yield_model.solve_defect_density ~target_yield:0.5
                         ~area:1.0 ~variance_ratio:0.25)
      ~area:1.0 ~variance_ratio:0.25
  in
  let defect =
    Fab.Defect.create ~yield_model ~fault_multiplicity:2.0 ~universe_size:1000 ()
  in
  let wafer = Fab.Wafer.fabricate defect rng ~diameter:31 () in
  print_string (Fab.Wafer.render_map wafer);
  let rows =
    Array.to_list (Fab.Wafer.yield_by_ring wafer ~rings:5)
    |> List.map (fun (r, y) ->
           [ Report.Table.float_cell ~decimals:2 r; Report.Table.float_cell y ])
  in
  print_string (Report.Table.render ~headers:[ "ring radius"; "yield" ] rows)

(* ------------------------------------------------------------------ *)
(* Multicore fault-simulation sweep: grade one fault universe with the
   serial PPSFP engine, then with the fault-sharded Par engine at
   several domain counts, verifying bit-identical results and emitting
   a machine-readable BENCH_fsim.json so the performance trajectory is
   trackable across commits. *)

(* One measurement: warmup runs discarded, then [repeats] timed samples
   reported as min/median/p90, plus GC allocation across the timed
   samples.  A single wall-clock sample is too noisy to compare across
   commits; min is the least-perturbed run, p90 bounds the jitter. *)
type timing = {
  sorted : float array;  (* ascending, seconds, length = repeats *)
  minor_words : float;   (* total across the timed samples *)
  major_words : float;
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let t_min t = t.sorted.(0)
let t_median t = quantile t.sorted 0.5
let t_p90 t = quantile t.sorted 0.9

let measure ~warmup ~repeats f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let result = ref None in
  let samples = Array.make repeats 0.0 in
  let g0 = Gc.quick_stat () in
  for i = 0 to repeats - 1 do
    let t0 = Unix.gettimeofday () in
    result := Some (f ());
    samples.(i) <- Unix.gettimeofday () -. t0
  done;
  let g1 = Gc.quick_stat () in
  Array.sort compare samples;
  ( Option.get !result,
    { sorted = samples;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words } )

(* Static-analysis bench: dominator-pass and implication-closure cost
   at several learn depths, plus a PODEM ablation — baseline vs
   analysis-assisted — over the faults a short random pattern set
   leaves undetected (the faults deterministic ATPG actually has to
   work on).  Verdicts must agree fault-by-fault and the assisted run
   must not add backtracks in total; both are hard failures here so a
   regression breaks the build, and the numbers land in
   BENCH_fsim.json next to the fault-simulation sweep. *)

let analysis_bench ~smoke () =
  Printf.printf "\nstatic analysis (learn depths 0/1/2 + PODEM ablation)\n\n";
  let circuit =
    if smoke then
      Circuit.Generators.random_circuit ~inputs:16 ~gates:400 ~outputs:12 ~seed:7
    else
      Circuit.Generators.random_circuit ~inputs:32 ~gates:2000 ~outputs:24 ~seed:7
  in
  let warmup = 1 in
  let repeats = if smoke then 2 else 5 in
  let _, dom_t =
    measure ~warmup ~repeats (fun () -> Analysis.Dominators.compute circuit)
  in
  Printf.printf "%-24s %10s %10s %10s\n" "pass" "min (s)" "median (s)" "p90 (s)";
  Printf.printf "%-24s %10.4f %10.4f %10.4f\n" "dominators" (t_min dom_t)
    (t_median dom_t) (t_p90 dom_t);
  let learn_rows =
    List.map
      (fun depth ->
        let imp, t =
          measure ~warmup ~repeats (fun () ->
              Analysis.Implication.learn ~depth circuit)
        in
        Printf.printf "%-24s %10.4f %10.4f %10.4f\n"
          (Printf.sprintf "implications depth=%d" depth)
          (t_min t) (t_median t) (t_p90 t);
        Report.Json.Obj
          [ ("depth", Report.Json.Int depth);
            ("rounds", Report.Json.Int (Analysis.Implication.rounds imp));
            ("learned", Report.Json.Int (Analysis.Implication.learned_count imp));
            ("implications", Report.Json.Int (Analysis.Implication.direct_count imp));
            ("min_s", Report.Json.Float (t_min t));
            ("median_s", Report.Json.Float (t_median t));
            ("p90_s", Report.Json.Float (t_p90 t)) ])
      [ 0; 1; 2 ]
  in
  (* PODEM ablation on the faults random patterns leave undetected. *)
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.dominance circuit classes in
  let patterns =
    Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:99 ()) circuit
      ~count:(if smoke then 32 else 64)
  in
  let profile = Fsim.Coverage.profile circuit universe patterns in
  let hard = Array.of_list (Fsim.Coverage.undetected profile universe) in
  let engine = Analysis.Engine.build ~learn_depth:(Some 1) circuit in
  let sweep ?analysis () =
    Array.map (fun fault -> Tpg.Podem.generate ?analysis circuit fault) hard
  in
  let baseline = sweep () in
  let assisted = sweep ~analysis:engine () in
  (* Under a finite backtrack limit, reordering the search legitimately
     changes which faults abort; the soundness invariant is that the
     two runs never return *contradicting* verdicts (Test one way,
     Untestable the other). *)
  let conflicts = ref 0 in
  Array.iteri
    (fun i (rb, _) ->
      let ra, _ = assisted.(i) in
      match (rb, ra) with
      | Tpg.Podem.Test _, Tpg.Podem.Untestable
      | Tpg.Podem.Untestable, Tpg.Podem.Test _ -> incr conflicts
      | _ -> ())
    baseline;
  let total run =
    Array.fold_left (fun acc (_, s) -> acc + s.Tpg.Podem.backtracks) 0 run
  in
  let aborts run =
    Array.fold_left
      (fun acc (r, _) -> acc + match r with Tpg.Podem.Aborted -> 1 | _ -> 0)
      0 run
  in
  let baseline_backtracks = total baseline in
  let assisted_backtracks = total assisted in
  Printf.printf
    "\nPODEM ablation: %d hard faults, backtracks %d -> %d (delta %d), \
     aborts %d -> %d, %d verdict conflicts\n"
    (Array.length hard) baseline_backtracks assisted_backtracks
    (baseline_backtracks - assisted_backtracks)
    (aborts baseline) (aborts assisted) !conflicts;
  if !conflicts > 0 then
    failwith "BENCH analyze: PODEM verdicts contradict under analysis";
  if aborts assisted > aborts baseline then
    failwith "BENCH analyze: analysis-assisted PODEM aborted on more faults";
  if assisted_backtracks > baseline_backtracks then
    failwith "BENCH analyze: analysis-assisted PODEM added backtracks";
  Report.Json.Obj
    [ ("circuit", Report.Json.String circuit.Circuit.Netlist.name);
      ("gates", Report.Json.Int (Circuit.Netlist.num_gates circuit));
      ( "dominators",
        Report.Json.Obj
          [ ("min_s", Report.Json.Float (t_min dom_t));
            ("median_s", Report.Json.Float (t_median dom_t));
            ("p90_s", Report.Json.Float (t_p90 dom_t)) ] );
      ("implications", Report.Json.List learn_rows);
      ( "podem_ablation",
        Report.Json.Obj
          [ ("hard_faults", Report.Json.Int (Array.length hard));
            ("baseline_backtracks", Report.Json.Int baseline_backtracks);
            ("analysis_backtracks", Report.Json.Int assisted_backtracks);
            ( "backtracks_saved",
              Report.Json.Int (baseline_backtracks - assisted_backtracks) );
            ("baseline_aborted", Report.Json.Int (aborts baseline));
            ("analysis_aborted", Report.Json.Int (aborts assisted));
            ("verdict_conflicts", Report.Json.Int !conflicts) ] ) ]

let run_analyze () =
  section "Static-analysis bench (dominators, implications, PODEM ablation)";
  ignore (analysis_bench ~smoke:false ())

(* n-detection sweep: grade one fault universe with the drop-after-n
   kernels at n = 1/2/4/8, cross-checking Serial/Ppsfp/Par bit-identity
   and the n = 1 / first-detection equivalence (hard failures), and
   recording per-n timings plus the n-detect coverage curve so
   BENCH_fsim.json tracks the cost of deeper grading. *)
let ndetect_bench ~warmup ~repeats circuit universe patterns =
  Printf.printf "\nn-detection sweep (drop-after-n)\n\n";
  let baseline = Fsim.Ppsfp.run circuit universe patterns in
  let nf = Array.length universe in
  let np = Array.length patterns in
  Printf.printf "%-4s %10s %10s %10s %10s\n" "n" "min (s)" "median (s)"
    "p90 (s)" "coverage";
  let prev_coverage = ref infinity in
  List.map
    (fun n ->
      let (detections, nth), t =
        measure ~warmup ~repeats (fun () ->
            Fsim.Ppsfp.run_counts ~n circuit universe patterns)
      in
      if Fsim.Serial.run_counts ~n circuit universe patterns <> (detections, nth)
      then failwith "BENCH ndetect: Serial.run_counts diverged from Ppsfp";
      if Fsim.Par.run_counts ~domains:2 ~n circuit universe patterns
         <> (detections, nth)
      then failwith "BENCH ndetect: Par.run_counts diverged from Ppsfp";
      if n = 1 && nth <> baseline then
        failwith "BENCH ndetect: n=1 grading diverged from first-detection";
      let profile =
        { Fsim.Coverage.universe_size = nf; pattern_count = np;
          first_detection = nth }
      in
      let coverage = Fsim.Coverage.final_coverage profile in
      if coverage > !prev_coverage +. 1e-12 then
        failwith "BENCH ndetect: coverage increased with n";
      prev_coverage := coverage;
      Printf.printf "%-4d %10.3f %10.3f %10.3f %10.4f\n" n (t_min t)
        (t_median t) (t_p90 t) coverage;
      let checkpoints =
        List.sort_uniq compare [ max 1 (np / 4); max 1 (np / 2);
                                 max 1 (3 * np / 4); np ]
      in
      Report.Json.Obj
        [ ("n", Report.Json.Int n);
          ("min_s", Report.Json.Float (t_min t));
          ("median_s", Report.Json.Float (t_median t));
          ("p90_s", Report.Json.Float (t_p90 t));
          ("coverage", Report.Json.Float coverage);
          ( "curve",
            Report.Json.List
              (List.map
                 (fun k ->
                   Report.Json.Obj
                     [ ("patterns", Report.Json.Int k);
                       ( "coverage",
                         Report.Json.Float
                           (Fsim.Coverage.coverage_after profile k) ) ])
                 checkpoints) ) ])
    [ 1; 2; 4; 8 ]

let run_ndetect () =
  section "n-detection sweep (drop-after-n kernels)";
  let circuit =
    Circuit.Generators.random_circuit ~inputs:64 ~gates:6000 ~outputs:48 ~seed:7
  in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let patterns =
    Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:99 ()) circuit ~count:512
  in
  ignore (ndetect_bench ~warmup:1 ~repeats:5 circuit universe patterns)

(* Static testability: the predicted coverage band (interval analysis,
   no simulation) against STAFAN's estimate and exact fault simulation.
   Containment is a hard check: the *measured* coverage of one random
   pattern set is a realization of the expected coverage the band
   provably contains, so it must land inside the band widened by a
   3-sigma sampling slack (the mean of F Bernoulli detections has
   standard deviation at most 1/(2*sqrt F)). *)

let testability_bench ~smoke () =
  section "static testability: predicted band vs STAFAN vs exact fsim";
  let workloads =
    let g = Circuit.Generators.of_spec in
    [ (g "c17", 256); (g "dec:5", 512); (g "parity:8", 128) ]
    @
    if smoke then []
    else
      [ (g "dec:6", 1024);
        (Circuit.Generators.random_circuit ~inputs:10 ~gates:60 ~outputs:4
           ~seed:5, 256) ]
  in
  let rows = ref [] in
  Printf.printf "%-10s %-8s %-18s %-10s %-10s\n" "circuit" "patterns"
    "predicted band" "stafan" "exact";
  List.iter
    (fun (circuit, pattern_count) ->
      let classes =
        Faults.Collapse.equivalence circuit (Faults.Universe.all circuit)
      in
      let reps = Faults.Collapse.representatives classes in
      let det =
        Analysis.Detectability.analyze (Analysis.Signal_prob.analyze circuit)
      in
      let rng = Stats.Rng.create ~seed:77 () in
      let patterns = Tpg.Random_tpg.uniform rng circuit ~count:pattern_count in
      let profile = Fsim.Coverage.profile circuit reps patterns in
      let st = Fsim.Stafan.analyze circuit patterns in
      let slack =
        (3.0 /. (2.0 *. sqrt (float_of_int (Array.length reps)))) +. 1e-9
      in
      List.iter
        (fun n ->
          let band = Analysis.Detectability.coverage_band det reps ~patterns:n in
          let lo = band.Analysis.Signal_prob.lo
          and hi = band.Analysis.Signal_prob.hi in
          let exact = Fsim.Coverage.coverage_after profile n in
          let stafan = Fsim.Stafan.expected_coverage st reps ~pattern_count:n in
          Printf.printf "%-10s %-8d [%.4f, %.4f]   %-10.4f %-10.4f\n"
            circuit.Circuit.Netlist.name n lo hi stafan exact;
          if exact < lo -. slack || exact > hi +. slack then
            failwith
              (Printf.sprintf
                 "BENCH testability: %s at n=%d: measured coverage %.4f \
                  outside predicted band [%.4f, %.4f] (slack %.4f)"
                 circuit.Circuit.Netlist.name n exact lo hi slack);
          rows :=
            Report.Json.Obj
              [ ("circuit", Report.Json.String circuit.Circuit.Netlist.name);
                ("faults", Report.Json.Int (Array.length reps));
                ("patterns", Report.Json.Int n);
                ("predicted_lo", Report.Json.Float lo);
                ("predicted_hi", Report.Json.Float hi);
                ("stafan", Report.Json.Float stafan);
                ("exact", Report.Json.Float exact) ]
            :: !rows)
        [ max 1 (pattern_count / 16); pattern_count / 4; pattern_count ])
    workloads;
  (* Hybrid ATPG ablation on a random-pattern-resistant circuit: the
     statically predicted cutover must beat pure random patterns on
     both axes — at least the coverage, with fewer patterns. *)
  let circuit = Circuit.Generators.decoder ~bits:(if smoke then 5 else 6) in
  let budget = if smoke then 1024 else 2048 in
  let classes =
    Faults.Collapse.equivalence circuit (Faults.Universe.all circuit)
  in
  let reps = Faults.Collapse.representatives classes in
  let config =
    { Tpg.Atpg.default_config with
      Tpg.Atpg.random_budget = budget;
      random_target = 1.0;
      hybrid = true;
      resistant_threshold = 0.02 }
  in
  let report = Tpg.Atpg.run ~config circuit reps in
  let rng = Stats.Rng.create ~seed:config.Tpg.Atpg.seed () in
  let pure = Tpg.Random_tpg.uniform rng circuit ~count:budget in
  let pure_coverage =
    Fsim.Coverage.final_coverage (Fsim.Coverage.profile circuit reps pure)
  in
  let hybrid_coverage = Tpg.Atpg.coverage report in
  let hybrid_patterns = Array.length report.Tpg.Atpg.patterns in
  Printf.printf
    "\nhybrid ATPG on %s: %d patterns (cutover %s) coverage %.4f | pure \
     random: %d patterns coverage %.4f\n"
    circuit.Circuit.Netlist.name hybrid_patterns
    (match report.Tpg.Atpg.predicted_cutover with
    | Some n -> string_of_int n
    | None -> "none")
    hybrid_coverage budget pure_coverage;
  if hybrid_coverage < pure_coverage then
    failwith "BENCH testability: hybrid ATPG lost coverage vs pure random";
  if hybrid_patterns >= budget then
    failwith "BENCH testability: hybrid ATPG used no fewer patterns than pure random";
  Report.Json.Obj
    [ ("curves", Report.Json.List (List.rev !rows));
      ("hybrid",
       Report.Json.Obj
         [ ("circuit", Report.Json.String circuit.Circuit.Netlist.name);
           ("budget", Report.Json.Int budget);
           ("predicted_cutover",
            (match report.Tpg.Atpg.predicted_cutover with
            | Some n -> Report.Json.Int n
            | None -> Report.Json.Null));
           ("hybrid_patterns", Report.Json.Int hybrid_patterns);
           ("hybrid_coverage", Report.Json.Float hybrid_coverage);
           ("pure_random_patterns", Report.Json.Int budget);
           ("pure_random_coverage", Report.Json.Float pure_coverage) ]) ]

(* Exact ROBDD analysis: shared node counts under the DFS order vs one
   sifting pass, ITE cache hit rate, and the exact-vs-interval
   band-width ablation.  Hard checks: sifting never loses to the DFS
   order it starts from, every workload classifies completely under
   the default node budget, and the exact coverage band is contained
   in the interval band it refines (so it is never wider).  The
   equivalence checker is exercised on a structurally distinct
   full-adder pair plus a one-gate mutant whose extracted
   counterexample must replay as a real output mismatch under plain
   simulation. *)

let bdd_bench ~smoke () =
  section "exact ROBDD analysis: node counts, cache, band ablation";
  let specs =
    [ "c17"; "parity:8"; "dec:5" ] @ if smoke then [] else [ "rca:8"; "mux:3" ]
  in
  let rows = ref [] in
  Printf.printf "%-10s %9s %10s %6s %11s %14s\n" "circuit" "dfs_nodes"
    "sift_nodes" "cache" "exact_width" "interval_width";
  List.iter
    (fun spec ->
      let circuit = Circuit.Generators.of_spec spec in
      let dfs = Bdd.Build.dfs_order circuit in
      let dfs_nodes =
        Bdd.Build.total_nodes (Bdd.Build.build ~order:dfs circuit)
      in
      let sifted = Bdd.Build.sift_order circuit dfs in
      let sift_nodes =
        Bdd.Build.total_nodes (Bdd.Build.build ~order:sifted circuit)
      in
      if sift_nodes > dfs_nodes then
        failwith
          (Printf.sprintf
             "BENCH bdd: %s: sifted order (%d nodes) lost to DFS (%d)" spec
             sift_nodes dfs_nodes);
      let exact = Analysis.Exact.analyze circuit in
      if not (Analysis.Exact.complete exact) then
        failwith
          (Printf.sprintf
             "BENCH bdd: %s: default budget left %d faults Unknown" spec
             (Analysis.Exact.unknown_count exact));
      let det =
        Analysis.Detectability.analyze (Analysis.Signal_prob.analyze circuit)
      in
      let reps =
        Faults.Collapse.representatives
          (Faults.Collapse.equivalence circuit (Faults.Universe.all circuit))
      in
      let patterns = 256 in
      let interval =
        Analysis.Detectability.coverage_band det reps ~patterns
      in
      let exact_band = Analysis.Exact.coverage_band exact det reps ~patterns in
      let ilo = interval.Analysis.Signal_prob.lo
      and ihi = interval.Analysis.Signal_prob.hi
      and elo = exact_band.Analysis.Signal_prob.lo
      and ehi = exact_band.Analysis.Signal_prob.hi in
      if elo < ilo -. 1e-12 || ehi > ihi +. 1e-12 then
        failwith
          (Printf.sprintf
             "BENCH bdd: %s: exact band [%.6f, %.6f] escapes interval band \
              [%.6f, %.6f]"
             spec elo ehi ilo ihi);
      let hit_rate = Analysis.Exact.cache_hit_rate exact in
      Printf.printf "%-10s %9d %10d %6.2f %11.6f %14.6f\n"
        circuit.Circuit.Netlist.name dfs_nodes sift_nodes hit_rate
        (ehi -. elo) (ihi -. ilo);
      rows :=
        Report.Json.Obj
          [ ("circuit", Report.Json.String circuit.Circuit.Netlist.name);
            ("inputs",
             Report.Json.Int (Array.length circuit.Circuit.Netlist.inputs));
            ("gates", Report.Json.Int (Circuit.Netlist.num_gates circuit));
            ("faults", Report.Json.Int (Array.length reps));
            ("dfs_nodes", Report.Json.Int dfs_nodes);
            ("sifted_nodes", Report.Json.Int sift_nodes);
            ("manager_nodes", Report.Json.Int (Analysis.Exact.node_count exact));
            ("cache_hit_rate", Report.Json.Float hit_rate);
            ("untestable",
             Report.Json.Int
               (List.length (Analysis.Exact.untestable exact reps)));
            ("patterns", Report.Json.Int patterns);
            ("interval_lo", Report.Json.Float ilo);
            ("interval_hi", Report.Json.Float ihi);
            ("exact_lo", Report.Json.Float elo);
            ("exact_hi", Report.Json.Float ehi);
            ("interval_width", Report.Json.Float (ihi -. ilo));
            ("exact_width", Report.Json.Float (ehi -. elo)) ]
        :: !rows)
    specs;
  (* Equivalence self-check on the full-adder pair from
     examples/circuits: carry-chain vs majority form must come back
     Equivalent; the one-gate mutant must mismatch with a
     counterexample that replays as a real output difference. *)
  let chain =
    Circuit.Bench_format.parse_string ~name:"adder_chain"
      {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
p = XOR(a, b)
sum = XOR(p, cin)
g = AND(a, b)
t = AND(cin, p)
cout = OR(g, t)|}
  in
  let majority =
    Circuit.Bench_format.parse_string ~name:"adder_majority"
      {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
q = XOR(b, cin)
sum = XOR(a, q)
m1 = AND(a, b)
m2 = AND(a, cin)
m3 = AND(b, cin)
m12 = OR(m1, m2)
cout = OR(m12, m3)|}
  in
  let mutant =
    Circuit.Bench_format.parse_string ~name:"adder_mutant"
      {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
q = XOR(b, cin)
sum = XOR(a, q)
m1 = AND(a, b)
m2 = AND(a, cin)
m3 = OR(b, cin)
m12 = OR(m1, m2)
cout = OR(m12, m3)|}
  in
  (match Bdd.Equiv.check chain majority with
  | Ok Bdd.Equiv.Equivalent -> ()
  | _ -> failwith "BENCH bdd: adder pair not proved equivalent");
  let mutant_output, counterexample =
    match Bdd.Equiv.check chain mutant with
    | Ok (Bdd.Equiv.Mismatch { output; pattern }) -> (output, pattern)
    | _ -> failwith "BENCH bdd: adder mutant not caught"
  in
  let outputs_under c =
    let values =
      Logicsim.Refsim.eval c
        (Array.map
           (fun id -> List.assoc c.Circuit.Netlist.node_names.(id) counterexample)
           c.Circuit.Netlist.inputs)
    in
    Array.map (fun id -> values.(id)) c.Circuit.Netlist.outputs
  in
  if outputs_under chain = outputs_under mutant then
    failwith "BENCH bdd: counterexample does not replay as a mismatch";
  Printf.printf
    "\nequiv: chain == majority; mutant differs on %s (counterexample \
     replays under simulation)\n"
    mutant_output;
  Report.Json.Obj
    [ ("circuits", Report.Json.List (List.rev !rows));
      ("equiv",
       Report.Json.Obj
         [ ("pair_equivalent", Report.Json.Bool true);
           ("mutant_output", Report.Json.String mutant_output);
           ("counterexample_inputs",
            Report.Json.Int (List.length counterexample)) ]) ]

let run_par ?(out = "BENCH_fsim.json") ?(history = "BENCH_history.jsonl")
    ~smoke () =
  section
    (Printf.sprintf "Multicore PPSFP sweep%s -> %s"
       (if smoke then " (smoke)" else "") out);
  let circuit =
    if smoke then
      Circuit.Generators.random_circuit ~inputs:16 ~gates:400 ~outputs:12 ~seed:7
    else
      Circuit.Generators.random_circuit ~inputs:64 ~gates:6000 ~outputs:48 ~seed:7
  in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let rng = Stats.Rng.create ~seed:99 () in
  let pattern_count = if smoke then 96 else 512 in
  let patterns = Tpg.Random_tpg.uniform rng circuit ~count:pattern_count in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let warmup = 1 in
  let repeats = if smoke then 2 else 5 in
  let baseline, serial_t =
    measure ~warmup ~repeats (fun () -> Fsim.Ppsfp.run circuit universe patterns)
  in
  let serial_median = t_median serial_t in
  let record ~engine ~domains t =
    Report.Json.Obj
      [ ("circuit", Report.Json.String circuit.Circuit.Netlist.name);
        ("gates", Report.Json.Int (Circuit.Netlist.num_gates circuit));
        ("faults", Report.Json.Int (Array.length universe));
        ("patterns", Report.Json.Int pattern_count);
        ("engine", Report.Json.String engine);
        ("domains", Report.Json.Int domains);
        ("min_s", Report.Json.Float (t_min t));
        ("median_s", Report.Json.Float (t_median t));
        ("p90_s", Report.Json.Float (t_p90 t));
        ("speedup", Report.Json.Float (serial_median /. t_median t));
        ("gc_minor_words", Report.Json.Float t.minor_words);
        ("gc_major_words", Report.Json.Float t.major_words) ]
  in
  let print_row ~engine ~domains t =
    Printf.printf "%-8s %-8d %10.3f %10.3f %10.3f %9.2f\n" engine domains
      (t_min t) (t_median t) (t_p90 t)
      (serial_median /. t_median t)
  in
  Format.printf "%a@." Circuit.Netlist.pp_summary circuit;
  Printf.printf
    "faults: %d collapsed, patterns: %d, host cores: %d, %d repeats (+%d warmup)\n\n"
    (Array.length universe) pattern_count
    (Domain.recommended_domain_count ())
    repeats warmup;
  Printf.printf "%-8s %-8s %10s %10s %10s %9s\n" "engine" "domains" "min (s)"
    "median (s)" "p90 (s)" "speedup";
  print_row ~engine:"ppsfp" ~domains:1 serial_t;
  let rows = ref [ record ~engine:"ppsfp" ~domains:1 serial_t ] in
  List.iter
    (fun domains ->
      let result, t =
        measure ~warmup ~repeats (fun () ->
            Fsim.Par.run ~domains circuit universe patterns)
      in
      if result <> baseline then
        failwith "BENCH_fsim: Par.run diverged from Ppsfp.run";
      rows := record ~engine:"par" ~domains t :: !rows;
      print_row ~engine:"par" ~domains t)
    domain_counts;
  (* Host context makes the artifact self-explaining: a 0.78x "speedup"
     at 8 domains is expected on a 1-core container, an anomaly on a
     16-core workstation. *)
  let host =
    Report.Json.Obj
      [ ("cores", Report.Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Report.Json.String Sys.ocaml_version);
        ("word_size", Report.Json.Int Sys.word_size);
        ("warmup", Report.Json.Int warmup);
        ("repeats", Report.Json.Int repeats) ]
  in
  let ndetect = ndetect_bench ~warmup ~repeats circuit universe patterns in
  let analysis = analysis_bench ~smoke () in
  let testability = testability_bench ~smoke () in
  let bdd = bdd_bench ~smoke () in
  let doc =
    Report.Json.Obj
      [ ("host", host);
        ("runs", Report.Json.List (List.rev !rows));
        ("ndetect", Report.Json.List ndetect);
        ("analysis", analysis);
        ("testability", testability);
        ("bdd", bdd) ]
  in
  let oc = open_out out in
  output_string oc (Report.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  (* Self-check the artifact on disk: the ndetect block must survive
     emission, so a refactor that silently drops it fails the build. *)
  let ic = open_in out in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Report.Json.parse written with
  | Ok (Report.Json.Obj fields)
    when List.mem_assoc "ndetect" fields
         && List.mem_assoc "testability" fields
         && List.mem_assoc "bdd" fields -> ()
  | Ok _ ->
    failwith "BENCH_fsim: written JSON lacks the ndetect, testability or bdd block"
  | Error message -> failwith ("BENCH_fsim: written JSON unparsable: " ^ message));
  (* Append the run to the history so `diff` has a trajectory to
     compare against; entries are keyed by host context at read time. *)
  Obs.History.append ~path:history
    (Obs.History.entry ~time_unix:(Unix.gettimeofday ()) doc);
  Printf.printf "\nwrote %s (all engines bit-identical)\n" out;
  Printf.printf "appended history entry to %s\n" history

(* ------------------------------------------------------------------ *)
(* Bench-history regression gate: compare a current BENCH_fsim.json
   document against the most recent same-host baseline in the history,
   with the noise-aware thresholds of Obs.History (Time metrics need
   both a 1.5x ratio and a 2ms absolute excess; Exact metrics flag on
   any change).  Exits 1 naming every regressed block, so CI can gate
   on it; an empty or foreign-host history compares nothing and
   passes. *)

let read_doc path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Report.Json.parse text with
  | Ok doc -> doc
  | Error message -> failwith (Printf.sprintf "bench diff: %s: %s" path message)

let run_diff ~history ?current () =
  section
    (Printf.sprintf "Bench history diff (%s%s)" history
       (match current with Some c -> " vs " ^ c | None -> ", last two entries"));
  let entries =
    match Obs.History.load history with
    | Ok entries -> entries
    | Error message ->
      failwith (Printf.sprintf "bench diff: %s: %s" history message)
  in
  let docs = List.filter_map Obs.History.doc_of_entry entries in
  let current_doc, candidates =
    match current with
    | Some path -> (Some (read_doc path), docs)
    | None ->
      (match List.rev docs with
      | cur :: rest -> (Some cur, List.rev rest)
      | [] -> (None, []))
  in
  match current_doc with
  | None -> Printf.printf "history %s is empty; nothing to compare\n" history
  | Some current ->
    let key = Obs.History.host_key current in
    (* Latest prior entry from the same host context is the baseline:
       never compare a laptop run against a CI-container trajectory. *)
    let baseline =
      List.fold_left
        (fun acc doc ->
          if String.equal (Obs.History.host_key doc) key then Some doc else acc)
        None candidates
    in
    (match baseline with
    | None ->
      Printf.printf
        "no baseline for host [%s] among %d history entr%s; nothing to compare\n"
        key (List.length docs)
        (if List.length docs = 1 then "y" else "ies")
    | Some baseline ->
      let rows = Obs.History.compare_docs ~baseline ~current () in
      print_string (Obs.History.render rows);
      let regressed = Obs.History.regressions rows in
      if regressed <> [] then begin
        Printf.eprintf "bench diff: %d regression%s vs baseline [%s]:\n"
          (List.length regressed)
          (if List.length regressed = 1 then "" else "s")
          key;
        List.iter
          (fun r ->
            Printf.eprintf "  %s %s\n" r.Obs.History.r_block r.Obs.History.r_name)
          regressed;
        exit 1
      end
      else Printf.printf "\nno regressions vs baseline [%s]\n" key)

(* ------------------------------------------------------------------ *)
(* Traced smoke iteration: run one tiny Par grading under the tracer,
   write the Chrome trace, then parse it back and check the spans the
   acceptance criteria promise are actually there.  Wired into
   `dune runtest` via the bench-smoke alias, so a refactor that
   silently stops emitting shard spans fails the build. *)

let obs_smoke_failure = ref false

let obs_check ~what ok =
  if ok then Printf.printf "ok      %s\n" what
  else begin
    Printf.printf "FAILED  %s\n" what;
    obs_smoke_failure := true
  end

let span_names json =
  match json with
  | Report.Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Report.Json.List events) ->
      List.filter_map
        (function
          | Report.Json.Obj ev -> (
            match List.assoc_opt "name" ev with
            | Some (Report.Json.String name) -> Some name
            | _ -> None)
          | _ -> None)
        events
    | _ -> [])
  | _ -> []

let run_obs_smoke ?(out = "BENCH_trace_smoke.json")
    ?(journal = "BENCH_journal_smoke.jsonl") () =
  section (Printf.sprintf "Traced bench smoke -> %s" out);
  let circuit =
    Circuit.Generators.random_circuit ~inputs:12 ~gates:200 ~outputs:8 ~seed:7
  in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let patterns =
    Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:99 ()) circuit ~count:64
  in
  let traced_run () =
    Obs.Trace.reset ();
    Obs.Metrics.reset ();
    Obs.Trace.set_enabled true;
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Metrics.set_enabled false)
      (fun () ->
        ignore (Analysis.Engine.build ~learn_depth:(Some 1) circuit);
        ignore (Fsim.Par.run ~domains:2 circuit universe patterns);
        ignore (Fsim.Par.run_counts ~domains:2 ~n:2 circuit universe patterns));
    Obs.Trace.tree_shape ()
  in
  let shape1 = traced_run () in
  let trace = Obs.Trace.to_chrome_json () in
  let text = Report.Json.to_string_pretty trace in
  let oc = open_out out in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  (* Validate the bytes on disk, not the in-memory value: read back and
     re-parse so the emitter's escaping is part of the check. *)
  let ic = open_in out in
  let written = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Report.Json.parse written with
  | Error message -> obs_check ~what:("trace parses: " ^ message) false
  | Ok parsed ->
    obs_check ~what:"trace parses as JSON" true;
    obs_check ~what:"round-trips through the emitter"
      (Report.Json.parse (Report.Json.to_string parsed) = Ok parsed);
    let names = span_names parsed in
    obs_check ~what:"traceEvents is non-empty" (names <> []);
    List.iter
      (fun required ->
        obs_check
          ~what:(Printf.sprintf "span %S present" required)
          (List.mem required names))
      [ "fsim.par"; "fsim.par.prepare"; "fsim.par.shard[0]"; "fsim.par.shard[1]";
        "fsim.ndetect.par"; "fsim.ndetect.par.prepare";
        "fsim.ndetect.par.shard[0]"; "fsim.ndetect.par.shard[1]";
        "analysis.build"; "analysis.dominators"; "analysis.implications";
        "analysis.prob.signal"; "analysis.prob.observability" ];
    (* Exact-analysis spans are gated on --exact: a default build must
       not carry them. *)
    List.iter
      (fun absent ->
        obs_check
          ~what:(Printf.sprintf "span %S absent without --exact" absent)
          (not (List.mem absent names)))
      [ "analysis.bdd.build"; "analysis.bdd.redundancy"; "analysis.bdd.equiv" ]);
  obs_check ~what:"metrics counted fault evaluations"
    (match Obs.Metrics.value "fsim.par.fault_evals" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"metrics counted n-detect fault evaluations"
    (match Obs.Metrics.value "fsim.ndetect.par.fault_evals" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"metrics counted signal-probability nodes"
    (match Obs.Metrics.value "analysis.prob.nodes" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"metrics counted cut reconvergent stems"
    (match Obs.Metrics.value "analysis.prob.cut_stems" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"no BDD metrics without --exact"
    (Obs.Metrics.value "analysis.bdd.nodes" = None
    && Obs.Metrics.value "analysis.bdd.budget_fallbacks" = None);
  (* Shape determinism at fixed seed: a second traced run must produce
     the identical span tree (names and nesting; timestamps ignored). *)
  let shape2 = traced_run () in
  obs_check ~what:"span tree shape is deterministic" (String.equal shape1 shape2);
  (* The mirror image of the gating check above: an exact-enabled build
     plus an equivalence check must emit every analysis.bdd.* span and
     metric. *)
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_enabled true;
  let small = Circuit.Generators.of_spec "c17" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Metrics.set_enabled false)
    (fun () ->
      ignore
        (Analysis.Engine.build ~exact_budget:Analysis.Exact.default_budget
           small);
      ignore (Bdd.Equiv.check small small));
  let exact_names = span_names (Obs.Trace.to_chrome_json ()) in
  List.iter
    (fun required ->
      obs_check
        ~what:(Printf.sprintf "span %S present with --exact" required)
        (List.mem required exact_names))
    [ "analysis.bdd.build"; "analysis.bdd.redundancy"; "analysis.bdd.equiv" ];
  obs_check ~what:"metrics counted BDD nodes with --exact"
    (match Obs.Metrics.value "analysis.bdd.nodes" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"metrics tracked BDD cache lookups with --exact"
    (match Obs.Metrics.value "analysis.bdd.cache_lookups" with
    | Some v -> v > 0.0
    | None -> false);
  obs_check ~what:"BDD budget-fallback counter present and zero"
    (Obs.Metrics.value "analysis.bdd.budget_fallbacks" = Some 0.0);
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  (* Journal smoke: the same workload under --journal semantics with
     throttling off, then hard-assert the event sequence on disk. *)
  let journaled_run () =
    Obs.Journal.attach ~path:journal;
    Obs.Journal.set_enabled true;
    Obs.Progress.configure ~interval_s:0.0 ~printer:None ();
    Obs.Progress.set_enabled true;
    Obs.Journal.run_start ~argv:Sys.argv ~seed:7 ~circuit:circuit.Circuit.Netlist.name ();
    ignore (Fsim.Par.run ~domains:2 circuit universe patterns);
    ignore (Fsim.Ppsfp.run circuit universe patterns);
    Obs.Journal.headline "faults" (Report.Json.Int (Array.length universe));
    Obs.Journal.run_end ~outcome:Obs.Journal.Finished;
    Obs.Progress.set_enabled false;
    Obs.Journal.set_enabled false;
    Obs.Journal.detach ();
    (* The comparable projection of the event stream: concurrent shards
       make rates and timestamps jitter, but labels and item counts are
       deterministic at fixed seed. *)
    match Obs.Journal.read_file journal with
    | Error _ as e -> e
    | Ok events ->
      Ok
        ( events,
          List.filter_map
            (function
              | Obs.Journal.Progress { label; task; items; total; _ } ->
                Some (label, task, items, total)
              | _ -> None)
            events )
  in
  (match journaled_run () with
  | Error message -> obs_check ~what:("journal parses: " ^ message) false
  | Ok (events, progress1) ->
    obs_check ~what:"journal parses as JSONL" true;
    let count p = List.length (List.filter p events) in
    obs_check ~what:"exactly one run_start, first"
      (count (function Obs.Journal.Run_start _ -> true | _ -> false) = 1
      && (match events with Obs.Journal.Run_start _ :: _ -> true | _ -> false));
    obs_check ~what:"exactly one run_end, last"
      (count (function Obs.Journal.Run_end _ -> true | _ -> false) = 1
      &&
      match List.rev events with
      | Obs.Journal.Run_end { outcome = Obs.Journal.Finished; _ } :: _ -> true
      | _ -> false);
    obs_check ~what:"at least one progress event" (progress1 <> []);
    obs_check ~what:"run_end carries the headline"
      (List.exists
         (function
           | Obs.Journal.Run_end { results; _ } ->
             List.assoc_opt "faults" results
             = Some (Report.Json.Int (Array.length universe))
           | _ -> false)
         events);
    (* items-done never goes backwards within a (label, task). *)
    let monotone =
      let last = Hashtbl.create 8 in
      List.for_all
        (fun (label, task, items, _) ->
          let key = (label, task) in
          let ok =
            match Hashtbl.find_opt last key with
            | Some prev -> items >= prev
            | None -> true
          in
          Hashtbl.replace last key items;
          ok)
        progress1
    in
    obs_check ~what:"progress items monotone per task" monotone;
    (* With throttling off, a single-threaded loop's (label, items)
       stream is deterministic — a second run must reproduce the serial
       engine's projection exactly.  (The Par stream is intentionally
       excluded: which intermediate counter values the shards publish
       depends on interleaving; only its final count is exact.) *)
    (match journaled_run () with
    | Error message -> obs_check ~what:("journal re-parses: " ^ message) false
    | Ok (_, progress2) ->
      let serial p =
        List.filter_map
          (fun (label, _, items, total) ->
            if String.equal label "fsim.ppsfp" then Some (label, items, total)
            else None)
          p
      in
      obs_check ~what:"unthrottled serial event stream is deterministic"
        (serial progress1 = serial progress2)));
  if !obs_smoke_failure then begin
    Printf.eprintf "obs-smoke: validation failed (see above)\n";
    exit 1
  end;
  Printf.printf "\nwrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one measurement per table/figure, plus
   the substrate ablations (fault-simulation engines, simulators). *)

let micro_tests () =
  let open Bechamel in
  let run = Lazy.force pipeline_run in
  let circuit =
    Circuit.Generators.random_circuit ~inputs:24 ~gates:1200 ~outputs:24 ~seed:5
  in
  let universe = Faults.Universe.all circuit in
  let classes = Faults.Collapse.equivalence circuit universe in
  let reps = Faults.Collapse.representatives classes in
  let sample_faults = Array.sub reps 0 (min 400 (Array.length reps)) in
  let rng = Stats.Rng.create ~seed:99 () in
  let patterns = Tpg.Random_tpg.uniform rng circuit ~count:128 in
  let one_block = Logicsim.Packed.block_of_patterns circuit (Array.sub patterns 0 64) in
  let experiment_tests =
    [ Test.make ~name:"fig1-series" (Staged.stage (fun () -> Experiments.Fig1.series ()));
      Test.make ~name:"fig2-series"
        (Staged.stage (fun () -> Experiments.Fig2_3_4.series ~reject:0.01));
      Test.make ~name:"fig3-series"
        (Staged.stage (fun () -> Experiments.Fig2_3_4.series ~reject:0.005));
      Test.make ~name:"fig4-series"
        (Staged.stage (fun () -> Experiments.Fig2_3_4.series ~reject:0.001));
      Test.make ~name:"fig5-family-and-fit"
        (Staged.stage (fun () ->
             ignore (Experiments.Fig5.family ~yield_:0.07);
             Experiments.Fig5.fit_paper ()));
      Test.make ~name:"fig6-series"
        (Staged.stage (fun () -> Experiments.Fig6.error_table ()));
      Test.make ~name:"table1-rows"
        (Staged.stage (fun () -> Experiments.Table1.simulated_side run));
      Test.make ~name:"comparison-rows"
        (Staged.stage (fun () -> Experiments.Comparison.rows ()));
      Test.make ~name:"fineline-sweep"
        (Staged.stage (fun () ->
             Experiments.Fineline.sweep ~shrinks:[ 1.0; 0.8; 0.6; 0.5 ] ())) ]
  in
  let substrate_tests =
    [ Test.make ~name:"fsim-serial-400f-64p"
        (Staged.stage (fun () ->
             Fsim.Serial.run circuit sample_faults (Array.sub patterns 0 64)));
      Test.make ~name:"fsim-ppsfp-400f-64p"
        (Staged.stage (fun () ->
             Fsim.Ppsfp.run circuit sample_faults (Array.sub patterns 0 64)));
      Test.make ~name:"logicsim-packed-64p"
        (Staged.stage (fun () -> Logicsim.Packed.eval_block circuit one_block));
      Test.make ~name:"logicsim-ref-1p"
        (Staged.stage (fun () -> Logicsim.Refsim.eval circuit patterns.(0)));
      Test.make ~name:"podem-one-fault"
        (Staged.stage (fun () -> Tpg.Podem.generate circuit reps.(17)));
      Test.make ~name:"podem-scoap-guided"
        (let scoap = Tpg.Scoap.analyze circuit in
         Staged.stage (fun () ->
             Tpg.Podem.generate ~guidance:(Tpg.Podem.Scoap_based scoap) circuit
               reps.(17)));
      Test.make ~name:"scoap-analyze"
        (Staged.stage (fun () -> Tpg.Scoap.analyze circuit));
      Test.make ~name:"collapse"
        (Staged.stage (fun () -> Faults.Collapse.equivalence circuit universe));
      Test.make ~name:"collapse-dominance"
        (Staged.stage (fun () -> Faults.Collapse.dominance circuit classes));
      Test.make ~name:"q0-exact-n32"
        (Staged.stage (fun () ->
             Quality.Escape.q0_exact ~total:10000 ~faulty:32 ~coverage:0.9));
      Test.make ~name:"required-coverage-solve"
        (Staged.stage (fun () ->
             Quality.Requirement.required_coverage ~yield_:0.07 ~n0:8.0 ~reject:0.001)) ]
  in
  Test.make_grouped ~name:"lsi" (experiment_tests @ substrate_tests)

(* Export the analytic figure series as CSV files for external plotting. *)
let run_csv directory =
  section (Printf.sprintf "CSV export to %s" directory);
  (try Unix.mkdir directory 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let save name series =
    let path = Filename.concat directory (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Report.Csv.of_series series);
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  save "fig1" (Experiments.Fig1.series ());
  save "fig2" (Experiments.Fig2_3_4.series ~reject:0.01);
  save "fig3" (Experiments.Fig2_3_4.series ~reject:0.005);
  save "fig4" (Experiments.Fig2_3_4.series ~reject:0.001);
  save "fig6" (Experiments.Fig6.series ());
  save "fig5"
    (Experiments.Fig5.family ~yield_:0.07 @ [ Experiments.Fig5.paper_points () ])

let run_micro () =
  section "Bechamel micro-benchmarks (one per experiment + substrates)";
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (v :: _) -> v
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, ns) ->
           let display =
             if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
             else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; display ])
  in
  print_string
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Right ]
       ~headers:[ "benchmark"; "time/run" ] rows)

let targets =
  [ ("fig1", run_fig1);
    ("fig2", fun () -> run_fig 2 "Fig.2" 0.01);
    ("fig3", fun () -> run_fig 3 "Fig.3" 0.005);
    ("fig4", fun () -> run_fig 4 "Fig.4" 0.001);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("table1", run_table1);
    ("comparison", run_comparison);
    ("fineline", run_fineline);
    ("ablation", run_ablation);
    ("signature", run_signature);
    ("stafan", run_stafan);
    ("drift", run_drift);
    ("economics", run_economics);
    ("wafer", run_wafer);
    ("par", fun () -> run_par ~smoke:false ());
    ("analyze", run_analyze);
    ("ndetect", run_ndetect);
    ("testability", fun () -> ignore (testability_bench ~smoke:false ()));
    ("bdd", fun () -> ignore (bdd_bench ~smoke:false ()));
    ("micro", run_micro) ]

(* "par", "analyze", "ndetect", "testability" and "bdd" are excluded
   from `all`: they are timing/validation runs, meaningful only when
   invoked on their own (the `par` targets embed the analyze, ndetect,
   testability and bdd sections in BENCH_fsim.json anyway). *)
let run_all () =
  List.iter
    (fun (name, f) ->
      if name <> "micro" && name <> "par" && name <> "analyze"
         && name <> "ndetect" && name <> "testability" && name <> "bdd"
      then f ())
    targets;
  run_fig234_checkpoints ();
  run_micro ()

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> run_all ()
  | [ _; "csv"; directory ] -> run_csv directory
  | [ _; "par"; out ] -> run_par ~out ~smoke:false ()
  | [ _; "par-smoke" ] -> run_par ~smoke:true ()
  | [ _; "par-smoke"; out ] -> run_par ~out ~smoke:true ()
  | [ _; "par-smoke"; out; history ] -> run_par ~out ~history ~smoke:true ()
  | [ _; "obs-smoke" ] -> run_obs_smoke ()
  | [ _; "obs-smoke"; out ] -> run_obs_smoke ~out ()
  | [ _; "obs-smoke"; out; journal ] -> run_obs_smoke ~out ~journal ()
  | [ _; "diff"; history ] -> run_diff ~history ()
  | [ _; "diff"; history; current ] -> run_diff ~history ~current ()
  | _ :: args ->
    List.iter
      (fun arg ->
        match List.assoc_opt arg targets with
        | Some f -> f ()
        | None when arg = "all" -> run_all ()
        | None ->
          Printf.eprintf "unknown target %S; available: %s all\n" arg
            (String.concat " " (List.map fst targets));
          exit 1)
      args
