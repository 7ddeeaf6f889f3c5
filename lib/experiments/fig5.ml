let n0_family = List.init 12 (fun i -> float_of_int (i + 1))

let family ~yield_ =
  List.map
    (fun n0 ->
      Report.Series.of_fn ~label:(Printf.sprintf "P(f) n0=%g" n0)
        ~f:(fun f -> Quality.Reject.p_reject ~yield_ ~n0 f)
        ~lo:0.0 ~hi:1.0 ~steps:100)
    n0_family

let paper_points () =
  Report.Series.make ~label:"paper Table 1"
    (Array.of_list
       (List.map (fun (f, frac) -> (f, frac)) Paper_data.table1_points))

let doubling_checkpoints total =
  let rec grow k acc = if k >= total then List.rev (total :: acc) else grow (2 * k) (k :: acc) in
  grow 1 [] |> List.sort_uniq compare

let simulated_rows run =
  let total = Tester.Pattern_set.pattern_count run.Pipeline.program in
  let rows =
    Tester.Wafer_test.rows_at_patterns run.Pipeline.outcome run.Pipeline.program
      ~checkpoints:(doubling_checkpoints total)
  in
  (* Several early prefixes can alias to the same coverage; keep the
     first occurrence of each coverage value. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun row ->
      let key = int_of_float (row.Tester.Wafer_test.coverage *. 1e6) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rows

let simulated_points run =
  Report.Series.make ~label:"simulated lot"
    (Array.of_list
       (List.map
          (fun row ->
            (row.Tester.Wafer_test.coverage, row.Tester.Wafer_test.fraction_failed))
          (simulated_rows run)))

let simulated_estimate_points run =
  List.map
    (fun row ->
      { Quality.Estimate.coverage = row.Tester.Wafer_test.coverage;
        fraction_failed = row.Tester.Wafer_test.fraction_failed })
    (simulated_rows run)

let paper_estimate_points () =
  List.map
    (fun (f, frac) -> { Quality.Estimate.coverage = f; fraction_failed = frac })
    Paper_data.table1_points

let fit_paper () =
  Quality.Estimate.fit_n0 ~yield_:Paper_data.table1_yield (paper_estimate_points ())

let fit_simulated run =
  Quality.Estimate.fit_n0 ~yield_:(Pipeline.true_yield run)
    (simulated_estimate_points run)

let render ?run () =
  let overlays =
    paper_points ()
    :: (match run with Some r -> [ simulated_points r ] | None -> [])
  in
  let plot =
    Report.Ascii_plot.render
      ~title:"Fig. 5: P(f) family (y = 0.07, n0 = 1..12) with experimental points"
      ~x_label:"fault coverage f" ~y_label:"fraction of chips failed"
      (family ~yield_:Paper_data.table1_yield @ overlays)
  in
  let n0_paper, residual_paper = fit_paper () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf plot;
  Buffer.add_string buf
    (Printf.sprintf
       "\nfit to paper Table 1 (y=%.2f): n0 = %.2f (residual %.2e); paper chose n0 = %g\n"
       Paper_data.table1_yield n0_paper residual_paper Paper_data.fitted_n0);
  let slope_raw =
    Quality.Estimate.slope_nav ~points_used:1 (paper_estimate_points ())
  in
  let slope_corrected =
    Quality.Estimate.slope_n0 ~points_used:1 ~yield_:Paper_data.table1_yield
      (paper_estimate_points ())
  in
  Buffer.add_string buf
    (Printf.sprintf
       "slope estimate from first paper point: P'(0) = %.2f (paper %.1f), n0 = %.2f (paper %.1f)\n"
       slope_raw Paper_data.slope_n0_raw slope_corrected
       Paper_data.slope_n0_corrected);
  (match run with
  | None -> ()
  | Some r ->
    let n0_sim, residual_sim = fit_simulated r in
    Buffer.add_string buf
      (Printf.sprintf
         "fit to simulated lot (y=%.3f): n0 = %.2f (residual %.2e); lot's true n0 = %.2f\n"
         (Pipeline.true_yield r) n0_sim residual_sim (Pipeline.true_n0 r)));
  Buffer.contents buf
