type closed_form_row = {
  yield_ : float;
  n0 : float;
  total_sites : int;
  max_abs_error : float;
}

let closed_form_error () =
  let cases =
    [ (0.80, 2.0, 1000); (0.20, 10.0, 1000); (0.07, 8.0, 5000); (0.07, 8.0, 500) ]
  in
  List.map
    (fun (yield_, n0, total_sites) ->
      let max_err = ref 0.0 in
      for i = 0 to 100 do
        let f = float_of_int i /. 100.0 in
        let closed = Quality.Reject.ybg ~yield_ ~n0 f in
        let exact = Quality.Reject.ybg_exact ~total:total_sites ~yield_ ~n0 f in
        max_err := max !max_err (abs_float (closed -. exact))
      done;
      { yield_; n0; total_sites; max_abs_error = !max_err })
    cases

type line_model_row = {
  line : string;
  true_n0 : float;
  fitted_n0 : float;
  slope_n0 : float;
  empirical_yield : float;
}

let pipeline_config ~scale ~lot_size ~line =
  { Pipeline.default_config with
    Pipeline.scale;
    lot_size;
    line;
    seed = 2024;
    atpg = { Tpg.Atpg.default_config with Tpg.Atpg.backtrack_limit = 200 } }

let line_model_bias ?(scale = 6) ?(lot_size = 250) () =
  List.map
    (fun (label, line) ->
      let run = Pipeline.execute (pipeline_config ~scale ~lot_size ~line) in
      let points = Fig5.simulated_estimate_points run in
      let empirical_yield = Pipeline.true_yield run in
      let fitted_n0, _ = Quality.Estimate.fit_n0 ~yield_:empirical_yield points in
      { line = label;
        true_n0 = Pipeline.true_n0 run;
        fitted_n0;
        slope_n0 = Quality.Estimate.slope_n0 ~points_used:1 ~yield_:empirical_yield points;
        empirical_yield })
    [ ("ideal (Eq.1)", Pipeline.Ideal); ("clustered", Pipeline.Clustered) ]

type tester_row = {
  mode : string;
  escapes : int;
  failed_total : int;
  mean_first_fail : float;
}

let tester_fidelity ?(scale = 6) ?(lot_size = 150) () =
  let base = pipeline_config ~scale ~lot_size ~line:Pipeline.Clustered in
  let run_lookup = Pipeline.execute base in
  (* Re-test the same lot exactly (same seed) with the exact tester. *)
  let run_exact =
    Pipeline.execute { base with Pipeline.tester_mode = Tester.Wafer_test.Exact_multifault }
  in
  let summarize label (run : Pipeline.run) =
    let fails =
      Array.to_list run.Pipeline.outcome.Tester.Wafer_test.outcomes
      |> List.filter_map (fun o -> o.Tester.Wafer_test.first_fail)
    in
    { mode = label;
      escapes = Tester.Wafer_test.test_escapes run.Pipeline.outcome;
      failed_total = List.length fails;
      mean_first_fail =
        (if fails = [] then nan
         else
           float_of_int (List.fold_left ( + ) 0 fails)
           /. float_of_int (List.length fails)) }
  in
  [ summarize "table lookup (single-fault superposition)" run_lookup;
    summarize "exact multi-fault simulation" run_exact ]

type dispersion_row = {
  dispersion : float;
  required_base : float;
  required_mixed : float;
}

let griffin_dispersion ?(yield_ = 0.07) ?(n0 = 8.0) ?(reject = 0.001) () =
  let required_base =
    match Quality.Requirement.required_coverage ~yield_ ~n0 ~reject with
    | Some f -> f
    | None -> 1.0
  in
  List.map
    (fun dispersion ->
      let required_mixed =
        if dispersion <= 1.0 then required_base
        else begin
          let mixed = Quality.Griffin.of_mean_dispersion ~yield_ ~n0 ~dispersion in
          match Quality.Griffin.required_coverage mixed ~reject with
          | Some f -> f
          | None -> 1.0
        end
      in
      { dispersion; required_base; required_mixed })
    [ 1.0; 1.5; 2.0; 3.0; 5.0 ]

type atpg_engine_row = {
  engine : string;
  total_backtracks : int;
  total_implications : int;
  aborted_faults : int;
}

let atpg_engines ?(bits = 6) ?(hardest = 60) () =
  let c = Circuit.Generators.array_multiplier ~bits in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let universe = Faults.Collapse.representatives classes in
  let scoap = Tpg.Scoap.analyze c in
  let targets =
    Tpg.Scoap.hardest_faults scoap c universe ~count:hardest |> List.map fst
  in
  let measure engine run =
    let backtracks = ref 0 and implications = ref 0 and aborted = ref 0 in
    List.iter
      (fun fault ->
        let b, i, a = run fault in
        backtracks := !backtracks + b;
        implications := !implications + i;
        if a then incr aborted)
      targets;
    { engine; total_backtracks = !backtracks; total_implications = !implications;
      aborted_faults = !aborted }
  in
  [ measure "PODEM (level-guided)" (fun fault ->
        let r, s = Tpg.Podem.generate ~backtrack_limit:5000 c fault in
        (s.Tpg.Podem.backtracks, s.Tpg.Podem.implications, r = Tpg.Podem.Aborted));
    measure "PODEM (SCOAP-guided)" (fun fault ->
        let r, s =
          Tpg.Podem.generate ~backtrack_limit:5000
            ~guidance:(Tpg.Podem.Scoap_based scoap) c fault
        in
        (s.Tpg.Podem.backtracks, s.Tpg.Podem.implications, r = Tpg.Podem.Aborted)) ]

let render () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Ablation A: Eq.7 closed form vs Eq.6 exact sum\n\n";
  Buffer.add_string buf
    (Report.Table.render
       ~headers:[ "yield"; "n0"; "N sites"; "max |Eq.7 - Eq.6|" ]
       (List.map
          (fun r ->
            [ Report.Table.float_cell ~decimals:2 r.yield_;
              Printf.sprintf "%g" r.n0; string_of_int r.total_sites;
              Printf.sprintf "%.3g" r.max_abs_error ])
          (closed_form_error ())));
  Buffer.add_string buf "\nAblation B: estimator bias, ideal vs clustered line\n\n";
  Buffer.add_string buf
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Right; Right; Right; Right ]
       ~headers:[ "line model"; "true n0"; "fitted n0"; "slope n0"; "yield" ]
       (List.map
          (fun r ->
            [ r.line; Report.Table.float_cell ~decimals:2 r.true_n0;
              Report.Table.float_cell ~decimals:2 r.fitted_n0;
              Report.Table.float_cell ~decimals:2 r.slope_n0;
              Report.Table.float_cell r.empirical_yield ])
          (line_model_bias ())));
  Buffer.add_string buf "\nAblation C: tester fidelity (fault masking)\n\n";
  Buffer.add_string buf
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Right; Right; Right ]
       ~headers:[ "tester mode"; "escapes"; "chips failed"; "mean first-fail pattern" ]
       (List.map
          (fun r ->
            [ r.mode; string_of_int r.escapes; string_of_int r.failed_total;
              Report.Table.float_cell ~decimals:1 r.mean_first_fail ])
          (tester_fidelity ())));
  Buffer.add_string buf
    "\nAblation D: Griffin gamma-mixed model, required coverage vs dispersion\n\n";
  Buffer.add_string buf
    (Report.Table.render
       ~headers:[ "dispersion"; "fixed-n0 requirement"; "mixed requirement" ]
       (List.map
          (fun r ->
            [ Printf.sprintf "%g" r.dispersion;
              Report.Table.percent_cell r.required_base;
              Report.Table.percent_cell r.required_mixed ])
          (griffin_dispersion ())));
  Buffer.add_string buf "\nAblation E: deterministic ATPG engines on the hardest faults\n\n";
  Buffer.add_string buf
    (Report.Table.render
       ~aligns:[ Report.Table.Left; Right; Right; Right ]
       ~headers:[ "engine"; "backtracks"; "implications"; "aborted" ]
       (List.map
          (fun r ->
            [ r.engine; string_of_int r.total_backtracks;
              string_of_int r.total_implications; string_of_int r.aborted_faults ])
          (atpg_engines ())));
  Buffer.contents buf
