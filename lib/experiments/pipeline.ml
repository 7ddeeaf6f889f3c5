type line_model = Ideal | Clustered

type program_style = Atpg_only | Functional_prelude of int

type config = {
  seed : int;
  scale : int;
  lot_size : int;
  target_yield : float;
  variance_ratio : float;
  target_n0 : float;
  atpg : Tpg.Atpg.config;
  tester_mode : Tester.Wafer_test.mode;
  line : line_model;
  program_style : program_style;
  fsim_engine : Fsim.Coverage.engine;
  exclude_untestable : bool;
  collapse_dominance : bool;
  n_detect : int option;
}

let default_config =
  { seed = 1981;
    scale = 8;
    lot_size = 277;
    target_yield = 0.07;
    variance_ratio = 0.25;
    target_n0 = 8.0;
    atpg = Tpg.Atpg.default_config;
    tester_mode = Tester.Wafer_test.Table_lookup;
    line = Ideal;
    program_style = Functional_prelude 192;
    fsim_engine = Fsim.Coverage.Parallel;
    exclude_untestable = false;
    collapse_dominance = false;
    n_detect = None }

type run = {
  config : config;
  circuit : Circuit.Netlist.t;
  universe : Faults.Fault.t array;
  untestable : Faults.Fault.t array;
  atpg_report : Tpg.Atpg.report;
  program : Tester.Pattern_set.t;
  defect : Fab.Defect.t;
  lot : Fab.Lot.t;
  outcome : Tester.Wafer_test.result;
}

exception Interrupted of Robust.Cancel.reason

let calibrated_multiplicity config ~lambda =
  (* expected_n0 = mu * lambda / (1 - y)  =>  mu = n0 (1 - y) / lambda. *)
  max 1.0 (config.target_n0 *. (1.0 -. config.target_yield) /. lambda)

(* The eight pipeline stages, in execution order; lint is
   conditional, so a run's stage ticks are a subsequence of 1..8 but
   always increasing — progress stays monotone. *)
let stage_total = 8

let stage index name f =
  Obs.Progress.stage ~label:"pipeline" ~stage:name ~index ~total:stage_total;
  Obs.Trace.with_span ("pipeline." ^ name) f

(* The lot parameters, checked before any stage runs: the fab stages
   that would reject them come after ATPG.  Each check is written so that
   NaN fails it. *)
let validate config =
  let require ok field range value =
    if not ok then
      invalid_arg
        (Printf.sprintf "Pipeline.execute: %s must be %s (got %s)" field range
           value)
  in
  let lot = config.lot_size
  and y = config.target_yield
  and n0 = config.target_n0
  and x = config.variance_ratio in
  require (lot >= 1) "lot_size" ">= 1" (string_of_int lot);
  require (0.0 < y && y < 1.0) "target_yield" "in (0, 1)" (Printf.sprintf "%g" y);
  require (1.0 <= n0 && n0 <= Float.max_float) "target_n0" "finite and >= 1"
    (Printf.sprintf "%g" n0);
  require (0.0 <= x && x <= Float.max_float) "variance_ratio" "finite and >= 0"
    (Printf.sprintf "%g" x)

let execute ?(cancel = Robust.Cancel.none) ?checkpoint config =
  validate config;
  (* Every stage boundary is a span plus a progress tick, so a trace of
     [execute] shows exactly where a simulate-lot run spends its time;
     the GC delta of the whole run accumulates in the [pipeline.*]
     counters. *)
  Obs.Metrics.with_gc_delta "pipeline" @@ fun () ->
  Obs.Trace.with_span "pipeline.execute" @@ fun () ->
  (* A run that cannot finish has no [run] value to return: cancellation
     is surfaced as the typed [Interrupted] exception, checked at every
     stage boundary and after every chip of the lot and test stages
     (ATPG additionally stops between targets and flushes its
     checkpoint first). *)
  let guard () =
    if Robust.Cancel.stop_requested cancel then
      raise
        (Interrupted
           (Option.value ~default:Robust.Cancel.Requested
              (Robust.Cancel.reason cancel)))
  in
  let stage index name f = guard (); stage index name f in
  let circuit =
    stage 1 "circuit" (fun () ->
        Circuit.Generators.lsi_chip ~seed:config.seed ~scale:config.scale ())
  in
  Obs.Trace.add_int "gates" (Circuit.Netlist.num_gates circuit);
  let full_universe, classes, universe =
    stage 2 "collapse" (fun () ->
        let full_universe = Faults.Universe.all circuit in
        let classes = Faults.Collapse.equivalence circuit full_universe in
        let universe =
          if config.collapse_dominance then
            Faults.Collapse.dominance circuit classes
          else Faults.Collapse.representatives classes
        in
        Obs.Trace.add_int "representatives" (Array.length universe);
        (full_universe, classes, universe))
  in
  let untestable =
    if not config.exclude_untestable then [||]
    else
      stage 3 "lint" (fun () ->
          (* Restrict the proven set to the collapsed universe so that
             [universe + untestable] is exactly the raw representative
             count. *)
          let proven =
            Analysis.Untestable.untestable_faults ~classes
              (Analysis.Untestable.prepare circuit) full_universe
          in
          let proven = Faults.Universe.mark circuit proven in
          Array.of_list
            (List.filter
               (fun fault -> proven.(Faults.Fault.id circuit fault))
               (Array.to_list universe)))
  in
  let universe = Faults.Universe.exclude_untestable circuit universe ~untestable in
  Obs.Trace.add_int "faults" (Array.length universe);
  let atpg_report =
    stage 4 "atpg" (fun () ->
        Tpg.Atpg.run
          ~config:{ config.atpg with seed = config.seed + 1 }
          ~cancel ?checkpoint circuit universe)
  in
  (* A cancelled ATPG returns a partial report; the boundary guard in
     the next [stage] call turns it into [Interrupted] rather than
     grading a truncated program as if it were the real one. *)
  let program =
    stage 5 "program" @@ fun () ->
    let atpg_patterns = atpg_report.Tpg.Atpg.patterns in
    let graded patterns =
      Tester.Pattern_set.of_simulation ~engine:config.fsim_engine
        ?n_detect:config.n_detect circuit universe patterns
    in
    match config.program_style with
    | Atpg_only when config.n_detect = None ->
      Tester.Pattern_set.make atpg_patterns atpg_report.Tpg.Atpg.profile
    | Atpg_only -> graded atpg_patterns
    | Functional_prelude count ->
      (* A low-activity functional walk first, then the graded ATPG set:
         gives the gradual coverage axis of the paper's Table 1. *)
      let rng = Stats.Rng.create ~seed:(config.seed + 3) () in
      let walk = Tpg.Random_tpg.random_walk rng circuit ~count () in
      graded (Array.append walk atpg_patterns)
  in
  Obs.Trace.add_int "patterns" (Tester.Pattern_set.pattern_count program);
  let defect =
    stage 6 "fab" @@ fun () ->
    let defect_density =
      Fab.Yield_model.solve_defect_density ~target_yield:config.target_yield
        ~area:1.0 ~variance_ratio:config.variance_ratio
    in
    let yield_model =
      Fab.Yield_model.create ~defect_density ~area:1.0
        ~variance_ratio:config.variance_ratio
    in
    let lambda = Fab.Yield_model.lambda yield_model in
    Fab.Defect.create ~yield_model
      ~fault_multiplicity:(calibrated_multiplicity config ~lambda)
      ~universe_size:(Array.length universe) ()
  in
  let lot =
    stage 7 "lot" @@ fun () ->
    let rng = Stats.Rng.create ~seed:(config.seed + 2) () in
    match config.line with
    | Clustered ->
      Fab.Lot.manufacture ~on_chip:guard defect rng ~count:config.lot_size
    | Ideal ->
      Fab.Lot.manufacture_ideal ~on_chip:guard ~yield_:config.target_yield
        ~n0:config.target_n0 ~universe_size:(Array.length universe) rng
        ~count:config.lot_size
  in
  Obs.Trace.add_int "chips" (Fab.Lot.size lot);
  let outcome =
    stage 8 "test" (fun () ->
        Tester.Wafer_test.test_lot ~on_chip:guard ~mode:config.tester_mode
          circuit universe program lot)
  in
  if Obs.Journal.enabled () then begin
    Obs.Journal.headline "circuit"
      (Report.Json.String circuit.Circuit.Netlist.name);
    Obs.Journal.headline "faults" (Report.Json.Int (Array.length universe));
    Obs.Journal.headline "patterns"
      (Report.Json.Int (Tester.Pattern_set.pattern_count program));
    Obs.Journal.headline "coverage"
      (Report.Json.Float (Tester.Pattern_set.final_coverage program));
    Obs.Journal.headline "empirical_yield"
      (Report.Json.Float (Fab.Lot.empirical_yield lot));
    Obs.Journal.headline "apparent_yield"
      (Report.Json.Float (Tester.Wafer_test.apparent_yield outcome));
    Obs.Journal.headline "test_escapes"
      (Report.Json.Int (Tester.Wafer_test.test_escapes outcome))
  end;
  { config; circuit; universe; untestable; atpg_report; program; defect; lot;
    outcome }

let raw_coverage run =
  (* Coverage over the uncorrected collapsed universe: the detection
     profile re-extended with the untestable (never-detected) faults. *)
  let detected = Fsim.Coverage.detected_count run.program.Tester.Pattern_set.profile in
  let raw_size = Array.length run.universe + Array.length run.untestable in
  if raw_size = 0 then 0.0 else float_of_int detected /. float_of_int raw_size

let true_n0 run = Fab.Lot.mean_faults_on_defective run.lot

let true_yield run = Fab.Lot.empirical_yield run.lot

let summary run =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "circuit: %s (%d nodes, %d gates, depth %d)\n"
    run.circuit.Circuit.Netlist.name
    (Circuit.Netlist.num_nodes run.circuit)
    (Circuit.Netlist.num_gates run.circuit)
    (Circuit.Netlist.depth run.circuit);
  addf "fault universe: %d collapsed (of %d lines x 2)\n"
    (Array.length run.universe)
    (Circuit.Netlist.line_count run.circuit);
  if Array.length run.untestable > 0 then
    addf
      "lint: %d statically untestable faults excluded (raw coverage %.2f%%, \
       corrected %.2f%%)\n"
      (Array.length run.untestable)
      (100.0 *. raw_coverage run)
      (100.0 *. Tester.Pattern_set.final_coverage run.program);
  addf "test program: %d patterns (%d random + %d deterministic), coverage %.2f%%\n"
    (Tester.Pattern_set.pattern_count run.program)
    run.atpg_report.Tpg.Atpg.random_patterns
    run.atpg_report.Tpg.Atpg.deterministic_patterns
    (100.0 *. Tester.Pattern_set.final_coverage run.program);
  (match run.program.Tester.Pattern_set.n_detect with
   | None -> ()
   | Some (n, nth) ->
     addf "n-detect: coverage at n=%d is %.2f%% (1-detect %.2f%%)\n" n
       (100.0 *. Fsim.Coverage.final_coverage nth)
       (100.0 *. Tester.Pattern_set.final_coverage run.program));
  addf "atpg: %d untestable, %d aborted\n" run.atpg_report.Tpg.Atpg.untestable
    run.atpg_report.Tpg.Atpg.aborted;
  addf "fab: lambda=%.3f defects/chip, multiplicity=%.3f, model yield=%.4f\n"
    (Fab.Yield_model.lambda (Fab.Defect.yield_model run.defect))
    (Fab.Defect.fault_multiplicity run.defect)
    (Fab.Defect.model_yield run.defect);
  addf "lot: %d chips, empirical yield=%.4f, true n0=%.2f (target %.2f)\n"
    (Fab.Lot.size run.lot) (true_yield run)
    (try true_n0 run with Invalid_argument _ -> nan)
    run.config.target_n0;
  addf "tester: apparent yield=%.4f, %d escapes\n"
    (Tester.Wafer_test.apparent_yield run.outcome)
    (Tester.Wafer_test.test_escapes run.outcome);
  Buffer.contents buf
