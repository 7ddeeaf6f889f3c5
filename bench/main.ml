(* Experiment-regeneration harness.

   Usage:  main.exe [target ...]
   Targets: fig1 fig2 fig3 fig4 fig5 fig6 table1 comparison fineline
            ablation signature stafan drift economics wafer micro all
            (default: all)
   Special: `csv DIR` exports the analytic figure series.

   Every figure and table of the paper's evaluation is regenerated and
   printed; `micro` additionally runs one Bechamel measurement per
   experiment plus substrate micro-benchmarks.  End-to-end speed is
   measured by perfbench/ (see BENCHMARK.json). *)

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
    ("micro", run_micro) ]

let run_all () =
  List.iter (fun (name, f) -> if name <> "micro" then f ()) targets;
  run_fig234_checkpoints ();
  run_micro ()

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> run_all ()
  | [ _; "csv"; directory ] -> run_csv directory
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
