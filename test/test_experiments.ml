(* Integration tests: the experiment modules and one full end-to-end
   pipeline run at reduced scale. *)

let close = Oracle.close

(* ------------------------- analytic figures ------------------------- *)

let test_fig1_checkpoints () =
  List.iter
    (fun (_, paper, ours) ->
      Alcotest.(check bool) "within graph tolerance" true
        (abs_float (paper -. ours) < 0.011))
    (Experiments.Fig1.checkpoints ())

let test_fig1_series_shape () =
  let series = Experiments.Fig1.series () in
  Alcotest.(check int) "4 curves" 4 (List.length series);
  List.iter
    (fun s ->
      let points = s.Report.Series.points in
      Alcotest.(check bool) "starts at 1-y" true
        (let _, r0 = points.(0) in
         r0 > 0.1);
      let _, last = points.(Array.length points - 1) in
      close ~eps:1e-9 0.0 last)
    series

let test_fig234_checkpoints () =
  List.iter
    (fun (label, paper, ours) ->
      Alcotest.(check bool) label true (abs_float (paper -. ours) < 0.025))
    (Experiments.Fig2_3_4.checkpoints ())

let test_fig234_series_monotone () =
  List.iter
    (fun reject ->
      let series = Experiments.Fig2_3_4.series ~reject in
      Alcotest.(check int) "12 curves" 12 (List.length series);
      List.iter
        (fun s ->
          let points = s.Report.Series.points in
          Array.iteri
            (fun i (_, f) ->
              if i > 0 then
                Alcotest.(check bool) "requirement falls with yield" true
                  (f <= snd points.(i - 1) +. 1e-9))
            points)
        series)
    [ 0.01; 0.005; 0.001 ]

let test_fig6_error_table () =
  let rows = Experiments.Fig6.error_table () in
  Alcotest.(check int) "six fault counts" 6 (List.length rows);
  List.iter
    (fun row ->
      (* Paper: A.2 coincides with the exact value for all n shown. *)
      Alcotest.(check bool) "A.2 tight" true (row.Experiments.Fig6.max_abs_error_a2 < 1e-3);
      (* "small but can be noticed": bounded by ~f n²/(2N(1-f)) at the
         validity-region edge, i.e. ~12.5 % worst case. *)
      Alcotest.(check bool) "A.3 small inside validity region" true
        (row.Experiments.Fig6.max_rel_error_a3 < 0.2))
    rows;
  (* A.3's relative error grows with n (the paper's "small but can be
     noticed"). *)
  let errors = List.map (fun r -> r.Experiments.Fig6.max_rel_error_a3) rows in
  Alcotest.(check bool) "error grows" true
    (List.nth errors 5 > List.nth errors 0)

let test_comparison_rows () =
  let rows = Experiments.Comparison.rows () in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "wadsack more demanding" true
        (row.Experiments.Comparison.wadsack > row.Experiments.Comparison.ours);
      (match row.Experiments.Comparison.paper_ours with
      | Some paper ->
        Alcotest.(check bool) "matches paper quote" true
          (abs_float (row.Experiments.Comparison.ours -. paper) < 0.02)
      | None -> ());
      match row.Experiments.Comparison.paper_wadsack with
      | Some paper ->
        Alcotest.(check bool) "matches paper wadsack" true
          (abs_float (row.Experiments.Comparison.wadsack -. paper) < 0.002)
      | None -> ())
    rows

let test_fineline_directions () =
  let rows = Experiments.Fineline.sweep ~shrinks:[ 1.0; 0.8; 0.6; 0.5 ] () in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      (* Smaller shrink factor: yield up, n0 up, requirement down. *)
      Alcotest.(check bool) "yield rises" true
        (b.Experiments.Fineline.yield_ > a.Experiments.Fineline.yield_);
      Alcotest.(check bool) "n0 rises" true
        (b.Experiments.Fineline.n0 >= a.Experiments.Fineline.n0 -. 1e-9);
      Alcotest.(check bool) "requirement falls" true
        (b.Experiments.Fineline.required_coverage
         <= a.Experiments.Fineline.required_coverage +. 1e-9);
      pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise rows

let test_griffin_ablation_monotone () =
  let rows = Experiments.Ablation.griffin_dispersion () in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "mixed requirement grows with dispersion" true
        (b.Experiments.Ablation.required_mixed
         >= a.Experiments.Ablation.required_mixed -. 1e-9);
      pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise rows

let test_closed_form_ablation () =
  List.iter
    (fun row ->
      Alcotest.(check bool) "Eq.7 close to Eq.6" true
        (row.Experiments.Ablation.max_abs_error < 0.01))
    (Experiments.Ablation.closed_form_error ())

let test_fig5_paper_fit () =
  let n0, residual = Experiments.Fig5.fit_paper () in
  Alcotest.(check bool) "n0 in [7, 9.5]" true (n0 >= 7.0 && n0 <= 9.5);
  Alcotest.(check bool) "decent fit" true (residual < 0.05)

let test_paper_data_self_consistent () =
  (* Digitized Table 1 fractions = failed/277 within rounding. *)
  List.iter
    (fun row ->
      let fraction =
        float_of_int row.Experiments.Paper_data.cumulative_failed /. 277.0
      in
      Alcotest.(check bool) "fraction consistent" true
        (abs_float (fraction -. row.Experiments.Paper_data.cumulative_fraction) < 0.006))
    Experiments.Paper_data.table1;
  (* Monotone. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "failed monotone" true
        (a.Experiments.Paper_data.cumulative_failed
         <= b.Experiments.Paper_data.cumulative_failed);
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone Experiments.Paper_data.table1

(* ------------------------ end-to-end pipeline ----------------------- *)

let small_run =
  lazy
    (Experiments.Pipeline.execute
       { Experiments.Pipeline.default_config with
         Experiments.Pipeline.scale = 4;
         lot_size = 400;
         seed = 99;
         program_style = Experiments.Pipeline.Functional_prelude 96;
         atpg =
           { Tpg.Atpg.default_config with Tpg.Atpg.backtrack_limit = 300 } })

let test_pipeline_lot_statistics () =
  let run = Lazy.force small_run in
  (* The simulated line hits its calibration targets. *)
  Alcotest.(check bool) "yield near 7%" true
    (abs_float (Experiments.Pipeline.true_yield run -. 0.07) < 0.035);
  Alcotest.(check bool) "true n0 near 8" true
    (abs_float (Experiments.Pipeline.true_n0 run -. 8.0) < 1.0)

let test_pipeline_program_quality () =
  let run = Lazy.force small_run in
  Alcotest.(check bool) "coverage above 90%" true
    (Tester.Pattern_set.final_coverage run.Experiments.Pipeline.program > 0.90)

let test_pipeline_estimators_recover_n0 () =
  let run = Lazy.force small_run in
  let estimates = Experiments.Table1.estimates run in
  let true_n0 = estimates.Experiments.Table1.true_n0 in
  Alcotest.(check bool)
    (Printf.sprintf "fit %.2f within 25%% of true %.2f"
       estimates.Experiments.Table1.fit_n0 true_n0)
    true
    (abs_float (estimates.Experiments.Table1.fit_n0 -. true_n0) /. true_n0 < 0.25)

let test_pipeline_reject_prediction () =
  (* The model's predicted escape count at the program's final coverage
     should bracket the observed escapes loosely (it's a 400-chip
     sample). *)
  let run = Lazy.force small_run in
  let y = Experiments.Pipeline.true_yield run in
  let n0 = Experiments.Pipeline.true_n0 run in
  let f = Tester.Pattern_set.final_coverage run.Experiments.Pipeline.program in
  let predicted_escapes =
    Quality.Reject.ybg ~yield_:y ~n0 f *. float_of_int 400
  in
  let observed = Tester.Wafer_test.test_escapes run.Experiments.Pipeline.outcome in
  Alcotest.(check bool)
    (Printf.sprintf "observed %d vs predicted %.1f" observed predicted_escapes)
    true
    (float_of_int observed <= predicted_escapes +. 6.0)

let test_pipeline_rows_sane () =
  let run = Lazy.force small_run in
  let rows = Experiments.Fig5.simulated_rows run in
  Alcotest.(check bool) "several distinct checkpoints" true (List.length rows >= 5);
  List.iter
    (fun row ->
      Alcotest.(check bool) "fraction <= 1 - yield + noise" true
        (row.Tester.Wafer_test.fraction_failed <= 1.0))
    rows

let test_pipeline_summary_renders () =
  let run = Lazy.force small_run in
  let text = Experiments.Pipeline.summary run in
  Alcotest.(check bool) "mentions circuit" true
    (String.length text > 100)

let test_renderers_do_not_raise () =
  (* Smoke: every cheap renderer produces nonempty output. *)
  List.iter
    (fun (name, output) ->
      Alcotest.(check bool) name true (String.length output > 200))
    [ ("fig1", Experiments.Fig1.render ());
      ("fig6", Experiments.Fig6.render ());
      ("comparison", Experiments.Comparison.render ());
      ("fineline", Experiments.Fineline.render ());
      ("fig5-paper-only", Experiments.Fig5.render ()) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [ ( "experiments.analytic",
      [ tc "Fig.1 checkpoints" test_fig1_checkpoints;
        tc "Fig.1 series shape" test_fig1_series_shape;
        tc "Figs.2-4 checkpoints" test_fig234_checkpoints;
        tc "Figs.2-4 monotone" test_fig234_series_monotone;
        tc "Fig.6 error table" test_fig6_error_table;
        tc "Section 7 comparison" test_comparison_rows;
        tc "Section 8 directions" test_fineline_directions;
        tc "Griffin ablation monotone" test_griffin_ablation_monotone;
        tc "closed-form ablation" test_closed_form_ablation;
        tc "Fig.5 paper fit ~ 8" test_fig5_paper_fit;
        tc "paper data self-consistent" test_paper_data_self_consistent;
        tc "renderers produce output" test_renderers_do_not_raise ] );
    ( "experiments.pipeline",
      [ slow "lot statistics on target" test_pipeline_lot_statistics;
        slow "program quality" test_pipeline_program_quality;
        slow "estimators recover n0" test_pipeline_estimators_recover_n0;
        slow "reject prediction brackets escapes" test_pipeline_reject_prediction;
        slow "checkpoint rows sane" test_pipeline_rows_sane;
        slow "summary renders" test_pipeline_summary_renders ] ) ]
