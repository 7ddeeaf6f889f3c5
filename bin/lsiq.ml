(* lsiq - LSI product quality and fault coverage toolkit.

   Command-line front end over the reproduction libraries: the paper's
   model (reject rates, coverage requirements, n0 estimation) plus the
   substrate (fault simulation, ATPG, lot simulation). *)

open Cmdliner

(* --------------------------- common args --------------------------- *)

let yield_arg =
  let doc = "Process yield y (probability a chip is fault-free)." in
  Arg.(required & opt (some float) None & info [ "y"; "yield" ] ~docv:"Y" ~doc)

let n0_arg =
  let doc = "Average number of faults on a defective chip (n0 >= 1)." in
  Arg.(value & opt float 8.0 & info [ "n0" ] ~docv:"N0" ~doc)

let reject_arg =
  let doc = "Target field reject rate, e.g. 0.001 for 1-in-1000." in
  Arg.(value & opt float 0.001 & info [ "r"; "reject" ] ~docv:"R" ~doc)

let seed_arg =
  let doc = "Random seed (all simulations are deterministic in it)." in
  Arg.(value & opt int 1981 & info [ "seed" ] ~docv:"SEED" ~doc)

let positive_int ~what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected %s >= 1, got %d" what n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let domains_arg =
  let doc =
    "Shard fault simulation across $(docv) OCaml domains (the multicore PPSFP \
     engine; results are bit-identical to the serial engines)."
  in
  Arg.(value & opt (some (positive_int ~what:"a domain count")) None
       & info [ "domains" ] ~docv:"N" ~doc)

let n_detect_arg =
  let doc =
    "Additionally grade n-detection coverage: a fault counts as covered only \
     once $(docv) distinct patterns have detected it (drop-after-n fault \
     simulation).  With $(docv)=1 this reproduces the ordinary coverage \
     bit-identically."
  in
  Arg.(value & opt (some (positive_int ~what:"a detection count")) None
       & info [ "n-detect" ] ~docv:"N" ~doc)

let circuit_arg =
  let doc =
    "Circuit: builtin spec (c17, rca:N, mul:N, alu:N, parity:N, mux:K, dec:N, \
     cmp:N, lsi:S, rand:i,g,o,seed) or a .bench file path."
  in
  Arg.(value & opt Circuit_arg.conv (Circuit.Generators.c17 ()) &
       info [ "c"; "circuit" ] ~docv:"CIRCUIT" ~doc)

(* The --fail-on flag of lint, analyze, testability and equiv: each
   passes its own default and doc. *)
let fail_on_arg ~default doc =
  Arg.(value
       & opt (enum [ ("never", `Never); ("warning", `Warning); ("error", `Error) ])
           default
       & info [ "fail-on" ] ~docv:"LEVEL" ~doc)

(* Exit 1 when a finding at the --fail-on level or worse is present.
   Call it after [with_obs] returns: [exit] does not unwind the stack,
   so inside it the trace file would never be written. *)
let fail_on_exit level ~errors ~warnings =
  match level with
  | `Never -> ()
  | `Error -> if errors then exit 1
  | `Warning -> if errors || warnings then exit 1

(* ------------------------- observability --------------------------- *)

let trace_arg =
  let doc =
    "Record a span trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (open in chrome://tracing or Perfetto); an ASCII \
     summary tree goes to stderr."
  in
  let env = Cmd.Env.info "LSIQ_TRACE" ~doc:"Fallback trace file when --trace is absent." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~env ~doc)

let metrics_arg =
  let doc =
    "Collect metrics (counters, gauges, histograms; patterns/sec, shard \
     imbalance, GC deltas) during the run and dump them to stderr at exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let journal_arg =
  let doc =
    "Write a structured JSONL run journal to $(docv): a run_start header \
     (argv, seed, host, git revision), throttled progress events from the \
     hot loops, a metrics snapshot when $(b,--metrics) is also given, and a \
     closing run_end with the headline results.  Render it later with \
     $(b,lsiq report)."
  in
  let env =
    Cmd.Env.info "LSIQ_JOURNAL" ~doc:"Fallback journal file when --journal is absent."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~env ~doc)

let progress_arg =
  let doc =
    "Print live progress lines (items done, EWMA rate, ETA) to stderr, at \
     most one per task per $(docv) seconds.  The value must be glued on: \
     $(b,--progress=0) emits on every batch (deterministic event streams \
     for tests); plain $(b,--progress) defaults to 0.5s."
  in
  Arg.(value & opt ~vopt:(Some 0.5) (some float) None
       & info [ "progress" ] ~docv:"SECS" ~doc)

(* The four flags above, bundled once for every command that takes them
   and consumed by [with_obs]. *)
type obs = {
  trace : string option;
  metrics : bool;
  journal : string option;
  progress : float option;
}

let obs_term =
  Term.(const (fun trace metrics journal progress ->
            { trace; metrics; journal; progress })
        $ trace_arg $ metrics_arg $ journal_arg $ progress_arg)

let exact_arg =
  let doc =
    "Additionally run the exact ROBDD analysis with node budget $(docv): \
     complete redundancy identification and exact detection probabilities \
     wherever the budget holds, sound interval fallback where it does not.  \
     The value must be glued on ($(b,--exact=200000)); plain $(b,--exact) \
     uses the default budget of 1000000 nodes."
  in
  Arg.(value
       & opt ~vopt:(Some Analysis.Exact.default_budget) (some int) None
       & info [ "exact" ] ~docv:"NODES" ~doc)

(* --------------------------- robustness ---------------------------- *)

let deadline_arg =
  let doc =
    "Cooperative wall-clock deadline for the run, in seconds.  When it \
     expires the engines stop at their next safe point (a 64-pattern block, \
     a PODEM backtrack, a die) and the command reports whatever partial \
     result is well-defined; a command with nothing printable exits 130 \
     after flushing its checkpoint."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let checkpoint_arg =
  let doc =
    "Crash-safe checkpoint file (atomic tmp+rename JSONL).  The run \
     snapshots its incremental state there; $(b,--resume) continues from \
     the last complete snapshot with bit-identical final results."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc =
    "Checkpoint cadence: snapshot after every $(docv) units of work \
     (patterns for fsim, fault targets for atpg, dies for simulate-lot)."
  in
  Arg.(value & opt (positive_int ~what:"a checkpoint cadence") 1024
       & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let resume_arg =
  let doc = "Resume from the $(b,--checkpoint) file instead of starting over." in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* The four flags above, bundled once for fsim, atpg and simulate-lot and
   validated by [robust_setup]. *)
type robust = {
  deadline : float option;
  checkpoint : string option;
  every : int;
  resume : bool;
}

let robust_term =
  Term.(const (fun deadline checkpoint every resume ->
            { deadline; checkpoint; every; resume })
        $ deadline_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg)

(* Manual flag validation: combinations cmdliner cannot express are
   usage errors — message on stderr, exit 2, before any work or obs
   state exists. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "lsiq: %s\n" msg;
      exit 2)
    fmt

(* Validate the shared robustness flags and build the run's cancel
   token with SIGINT/SIGTERM pointed at it. *)
let robust_setup r =
  (match r.deadline with
  | Some d when not (0.0 < d) -> usage_error "--deadline must be > 0 (got %g)" d
  | _ -> ());
  if r.resume && r.checkpoint = None then
    usage_error "--resume requires --checkpoint FILE";
  let cancel = Robust.Cancel.create ?deadline_s:r.deadline () in
  Robust.Signals.install cancel;
  cancel

(* After a command printed its (possibly partial) result: a note about
   why the run stopped early, and the 130 exit for signal deaths. *)
let robust_finish ?(note = "") cancel =
  match Robust.Cancel.reason cancel with
  | None -> ()
  | Some reason ->
    Printf.eprintf "lsiq: stopped early (%s)%s\n"
      (Robust.Cancel.reason_to_string reason)
      note;
    if Robust.Signals.interrupted cancel then
      exit Robust.Signals.exit_interrupted

(* Enable the obs subsystem around [f], then emit: the Chrome trace to
   the requested file (summary tree to stderr), metrics text to stderr,
   journal events to the --journal file, progress lines to stderr.
   All obs output is status, never data — stdout stays pipe-clean.
   [cancel] classifies the journal outcome: a run whose token fired
   ends [Interrupted], not [Finished]/[Failed]. *)
let with_obs ?seed ?circuit ?(cancel = Robust.Cancel.none)
    { trace; metrics; journal; progress } f =
  let classify_ok () =
    if Robust.Cancel.stop_requested cancel then Obs.Journal.Interrupted
    else Obs.Journal.Finished
  in
  let classify_exn = function
    | Experiments.Pipeline.Interrupted _ -> Obs.Journal.Interrupted
    | e -> Obs.Journal.Failed (Printexc.to_string e)
  in
  if trace = None && not metrics && journal = None && progress = None then f ()
  else begin
    if trace <> None then begin
      Obs.Trace.reset ();
      Obs.Trace.set_enabled true
    end;
    if metrics then begin
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true
    end;
    (match journal with
    | Some path ->
      Obs.Journal.attach ~path;
      Obs.Journal.set_enabled true;
      Obs.Journal.run_start ~argv:Sys.argv ?seed ?circuit ()
    | None -> ());
    if journal <> None || progress <> None then begin
      (* stderr lines only under --progress; with --journal alone the
         events flow silently to the file. *)
      let printer =
        match progress with
        | Some _ -> Some (fun line -> prerr_string line; flush stderr)
        | None -> None
      in
      let interval_s = match progress with Some s -> s | None -> 0.5 in
      Obs.Progress.configure ~interval_s ~printer ();
      Obs.Progress.set_enabled true
    end;
    let finish outcome =
      Obs.Trace.set_enabled false;
      Obs.Metrics.set_enabled false;
      Obs.Progress.set_enabled false;
      (match trace with
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Report.Json.to_string_pretty (Obs.Trace.to_chrome_json ()));
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "trace: wrote %s (%d spans)\n" path
          (List.length (Obs.Trace.spans ()));
        prerr_string (Obs.Trace.summary_tree ())
      | None -> ());
      if metrics then begin
        prerr_newline ();
        prerr_string (Obs.Metrics.render_text ())
      end;
      if journal <> None then begin
        if metrics then Obs.Journal.metrics_snapshot (Obs.Metrics.snapshot ());
        Obs.Journal.run_end ~outcome;
        Obs.Journal.set_enabled false;
        Obs.Journal.detach ()
      end;
      flush stderr
    in
    (* Not Fun.protect: run_end must record how the run ended. *)
    match f () with
    | v -> finish (classify_ok ()); v
    | exception e ->
      finish (classify_exn e);
      raise e
  end

(* --------------------------- reject-rate --------------------------- *)

let reject_rate_cmd =
  let coverage =
    Arg.(required & opt (some float) None & info [ "f"; "coverage" ] ~docv:"F"
           ~doc:"Fault coverage of the test set, in [0,1].")
  in
  (* Every answer is computed before any is printed: the models raise
     Invalid_argument on a parameter outside their domain, NaN
     included, which exits 2 at the error boundary with stdout empty. *)
  let action y n0 f =
    let r = Quality.Reject.reject_rate ~yield_:y ~n0 f in
    let ybg = Quality.Reject.ybg ~yield_:y ~n0 f in
    let p = Quality.Reject.p_reject ~yield_:y ~n0 f in
    let wadsack = Quality.Wadsack.reject_rate ~yield_:y f in
    Printf.printf "field reject rate  r(f) = %.6f\n" r;
    Printf.printf "bad-chips-passing  Ybg  = %.6f\n" ybg;
    Printf.printf "fraction rejected  P(f) = %.6f\n" p;
    Printf.printf "baseline (Wadsack) r    = %.6f\n" wadsack
  in
  let doc = "Field reject rate for a given coverage (paper Eq. 7-9)." in
  Cmd.v (Cmd.info "reject-rate" ~doc)
    Term.(const action $ yield_arg $ n0_arg $ coverage)

(* ------------------------ required-coverage ------------------------ *)

let required_coverage_cmd =
  (* All three answers before any is printed, as in reject-rate. *)
  let action y n0 reject =
    let ours = Quality.Requirement.required_coverage ~yield_:y ~n0 ~reject in
    let wadsack = Quality.Wadsack.required_coverage ~yield_:y ~reject in
    let williams_brown =
      Quality.Williams_brown.required_coverage ~yield_:y ~defect_level:reject
    in
    (match ours with
    | Some f -> Printf.printf "required coverage (this model): %.4f\n" f
    | None -> print_endline "required coverage (this model): unreachable");
    (match wadsack with
    | Some f -> Printf.printf "required coverage (Wadsack):    %.4f\n" f
    | None -> print_endline "required coverage (Wadsack):    unreachable");
    match williams_brown with
    | Some f -> Printf.printf "required coverage (Williams-Brown): %.4f\n" f
    | None -> print_endline "required coverage (Williams-Brown): n/a"
  in
  let doc = "Coverage needed for a target reject rate (paper Eq. 8/11, Figs. 2-4)." in
  Cmd.v (Cmd.info "required-coverage" ~doc)
    Term.(const action $ yield_arg $ n0_arg $ reject_arg)

(* --------------------------- estimate-n0 --------------------------- *)

let estimate_cmd =
  let data =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CSV"
           ~doc:"CSV file with two columns: coverage (0..1), fraction failed.")
  in
  let yield_opt =
    Arg.(value & opt (some float) None & info [ "y"; "yield" ] ~docv:"Y"
           ~doc:"Known process yield; when omitted, jointly estimated.")
  in
  let action path yield_opt =
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let points =
      Report.Csv.parse text
      |> List.filter_map (fun row ->
             match row with
             | [ a; b ] ->
               (match (float_of_string_opt a, float_of_string_opt b) with
               | Some coverage, Some fraction_failed ->
                 Some { Quality.Estimate.coverage; fraction_failed }
               | _ -> None (* header or malformed row *))
             | _ -> None)
    in
    if points = [] then failwith "no (coverage, fraction) rows found";
    (match yield_opt with
    | Some y ->
      let n0, residual = Quality.Estimate.fit_n0 ~yield_:y points in
      Printf.printf "least-squares fit: n0 = %.2f (residual %.3g)\n" n0 residual;
      Printf.printf "slope estimate:    n0 = %.2f (P'(0) = %.2f)\n"
        (Quality.Estimate.slope_n0 ~yield_:y points)
        (Quality.Estimate.slope_nav points)
    | None ->
      let n0, y, residual = Quality.Estimate.fit_n0_and_yield points in
      Printf.printf "joint fit: n0 = %.2f, yield = %.3f (residual %.3g)\n" n0 y residual;
      Printf.printf "slope estimate (yield-free, pessimistic): n0 ~ %.2f\n"
        (Quality.Estimate.slope_nav points))
  in
  let doc = "Estimate n0 from wafer-test data (paper Section 5)." in
  Cmd.v (Cmd.info "estimate-n0" ~doc) Term.(const action $ data $ yield_opt)

(* --------------------------- simulate-lot -------------------------- *)

let simulate_lot_cmd =
  let scale =
    Arg.(value & opt int 6 & info [ "scale" ] ~docv:"S" ~doc:"lsi_chip scale.")
  in
  let chips =
    Arg.(value & opt int 277 & info [ "chips" ] ~docv:"N" ~doc:"Lot size.")
  in
  let target_yield =
    Arg.(value & opt float 0.07 & info [ "target-yield" ] ~docv:"Y"
           ~doc:"Process yield to calibrate the line to.")
  in
  let clustered =
    Arg.(value & flag & info [ "clustered" ]
           ~doc:"Use the physical clustered-defect line instead of the ideal \
                 Eq. 1 line.")
  in
  let exclude_untestable =
    Arg.(value & flag & info [ "exclude-untestable" ]
           ~doc:"Statically prove untestable faults (lint subsystem) and drop \
                 them from the fault universe, correcting the coverage \
                 denominator.")
  in
  let collapse_dominance =
    Arg.(value & flag & info [ "collapse-dominance" ]
           ~doc:"Use the dominance-collapsed fault universe instead of the \
                 plain equivalence representatives (composes with \
                 --exclude-untestable).")
  in
  let action scale chips target_yield n0 clustered exclude_untestable
      collapse_dominance n_detect seed domains
      ({ checkpoint; every; resume; _ } as robust) obs =
    let cancel = robust_setup robust in
    (try
       with_obs ~seed ~cancel obs @@ fun () ->
       let config =
         { Experiments.Pipeline.default_config with
           Experiments.Pipeline.scale; lot_size = chips; target_yield;
           target_n0 = n0; seed; exclude_untestable; collapse_dominance;
           n_detect;
           line = (if clustered then Experiments.Pipeline.Clustered
                   else Experiments.Pipeline.Ideal);
           fsim_engine =
             (match domains with
             | Some n -> Fsim.Coverage.Par { domains = n }
             | None -> Experiments.Pipeline.default_config.fsim_engine) }
       in
       let lot_checkpoint =
         Option.map
           (fun path -> { Experiments.Pipeline.path; every; resume })
           checkpoint
       in
       let run = Experiments.Pipeline.execute ~cancel ?lot_checkpoint config in
       print_string (Experiments.Pipeline.summary run);
       print_newline ();
       print_string (Experiments.Table1.render ~run ());
       match Tester.Pattern_set.n_detect run.Experiments.Pipeline.program with
       | None -> ()
       | Some cs ->
         (* The same lot read off the n-detect coverage axis: each row
            sits at the first pattern count whose n-detect coverage
            reaches the checkpoint. *)
         Printf.printf "\nn-detect rows (coverage = %d-detect):\n"
           cs.Fsim.Coverage.require;
         List.iter
           (fun row ->
             Printf.printf
               "  coverage %.3f  after %4d patterns  failed %3d (%.3f)\n"
               row.Tester.Wafer_test.coverage
               row.Tester.Wafer_test.patterns_applied
               row.Tester.Wafer_test.cumulative_failed
               row.Tester.Wafer_test.fraction_failed)
           (Tester.Wafer_test.rows_at_n_detect_coverages
              run.Experiments.Pipeline.outcome run.Experiments.Pipeline.program
              ~coverages:[ 0.25; 0.5; 0.75; 0.9; 0.95 ])
     with
    | Experiments.Pipeline.Interrupted reason ->
      (* A lot run with no complete outcome has nothing printable: note
         where the durable progress lives and exit 130 whatever the
         cancel source (signal or deadline). *)
      Printf.eprintf "lsiq: interrupted (%s)%s\n"
        (Robust.Cancel.reason_to_string reason)
        (match checkpoint with
        | Some path ->
          Printf.sprintf "; progress durable in %s (--resume continues)" path
        | None -> "");
      exit Robust.Signals.exit_interrupted);
    robust_finish cancel
  in
  let doc = "Simulate a chip lot end-to-end and print its Table-1 analogue." in
  Cmd.v (Cmd.info "simulate-lot" ~doc)
    Term.(const action $ scale $ chips $ target_yield $ n0_arg $ clustered
          $ exclude_untestable $ collapse_dominance $ n_detect_arg $ seed_arg
          $ domains_arg $ robust_term $ obs_term)

(* ------------------------------ fsim ------------------------------- *)

let fsim_cmd =
  let patterns =
    Arg.(value & opt int 256 & info [ "n"; "patterns" ] ~docv:"N"
           ~doc:"Number of random patterns to grade.")
  in
  let engine =
    Arg.(value & opt (some (enum [ ("serial", Fsim.Coverage.Serial);
                                   ("ppsfp", Fsim.Coverage.Parallel) ]))
           None
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"serial or ppsfp (default ppsfp).  Conflicts with \
                   $(b,--domains), which selects the multicore par engine.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Emit the coverage curve as CSV (patterns, coverage) on \
                 stdout; status text goes to stderr.")
  in
  let collapse_dominance =
    Arg.(value & flag & info [ "collapse-dominance" ]
           ~doc:"Grade the dominance-collapsed universe instead of the plain \
                 equivalence representatives.")
  in
  let action circuit count engine seed domains collapse_dominance n_detect csv
      ({ checkpoint; every; resume; _ } as robust) obs =
    let engine =
      match (engine, domains) with
      | Some _, Some _ ->
        usage_error
          "--engine conflicts with --domains (--domains selects the multicore \
           par engine)"
      | Some e, None -> e
      | None, Some n -> Fsim.Coverage.Par { domains = n }
      | None, None -> Fsim.Coverage.Parallel
    in
    let cancel = robust_setup robust in
    let note =
      with_obs ~seed ~circuit:circuit.Circuit.Netlist.name ~cancel obs
      @@ fun () ->
      let rng = Stats.Rng.create ~seed () in
      let universe = Faults.Universe.all circuit in
      let classes = Faults.Collapse.equivalence circuit universe in
      let reps =
        if collapse_dominance then Faults.Collapse.dominance circuit classes
        else Faults.Collapse.representatives classes
      in
      let patterns = Tpg.Random_tpg.uniform rng circuit ~count in
      let profile, note =
        match checkpoint with
        | None ->
          (Fsim.Coverage.profile ~engine ~cancel circuit reps patterns, "")
        | Some path ->
          (match
             Fsim.Restart.run ~engine ~cancel ~every ~resume ~checkpoint:path
               ~seed circuit reps patterns
           with
          | Error msg -> raise (Robust.Checkpoint.Mismatch msg)
          | Ok o ->
            let note =
              if o.Fsim.Restart.completed then ""
              else
                Printf.sprintf
                  "; %d/%d patterns graded, durable in %s (--resume \
                   continues)"
                  o.Fsim.Restart.patterns_done count path
            in
            (o.Fsim.Restart.profile, note))
      in
      (* The n-detect pass shares the cancel token: its figures are
         reported only when it ran to completion with the token
         unfired, never as the zeros of a pass that stopped early. *)
      let ndetect_counts =
        Option.bind n_detect (fun n ->
            let cs =
              Fsim.Coverage.detection_counts ~engine ~cancel ~n circuit reps
                patterns
            in
            if Robust.Cancel.stop_requested cancel then None else Some cs)
      in
      let note =
        if n_detect <> None && ndetect_counts = None then
          note ^ "; n-detect pass not completed"
        else note
      in
      (* Progress/status on stderr; only the results on stdout, so
         `--csv` output pipes clean. *)
      Format.eprintf "%a@." Circuit.Netlist.pp_summary circuit;
      Printf.eprintf "universe: %d faults (%d after collapsing, ratio %.2f)\n"
        (Array.length universe) (Array.length reps)
        (Faults.Collapse.collapse_ratio classes);
      Printf.eprintf "patterns: %d random\n%!" count;
      let curve = Fsim.Coverage.curve profile in
      if csv then begin
        match ndetect_counts with
        | None ->
          print_string
            (Report.Csv.of_rows
               ([ "patterns"; "coverage" ]
               :: (Array.to_list curve
                  |> List.map (fun (k, f) ->
                         [ string_of_int k; Printf.sprintf "%.6f" f ]))))
        | Some cs ->
          let ncurve = Fsim.Coverage.curve (Fsim.Coverage.n_detect_profile cs) in
          print_string
            (Report.Csv.of_rows
               ([ "patterns"; "coverage"; "ndetect_coverage" ]
               :: (Array.to_list curve
                  |> List.mapi (fun i (k, f) ->
                         [ string_of_int k;
                           Printf.sprintf "%.6f" f;
                           Printf.sprintf "%.6f" (snd ncurve.(i)) ]))))
      end
      else begin
        Printf.printf "coverage: %.2f%% (%d detected, %d undetected)\n"
          (100.0 *. Fsim.Coverage.final_coverage profile)
          (Fsim.Coverage.detected_count profile)
          (Array.length reps - Fsim.Coverage.detected_count profile);
        (match ndetect_counts with
        | None -> ()
        | Some cs ->
          Printf.printf "n-detect coverage (n=%d): %.2f%%\n"
            cs.Fsim.Coverage.require
            (100.0 *. Fsim.Coverage.n_detect_coverage cs));
        let step = max 1 (Array.length curve / 16) in
        Array.iteri
          (fun i (k, f) ->
            if i mod step = 0 || i = Array.length curve - 1 then
              Printf.printf "  after %5d patterns: %.2f%%\n" k (100.0 *. f))
          curve
      end;
      note
    in
    robust_finish ~note cancel
  in
  let doc = "Fault-simulate random patterns and print the coverage curve." in
  Cmd.v (Cmd.info "fsim" ~doc)
    Term.(const action $ circuit_arg $ patterns $ engine $ seed_arg
          $ domains_arg $ collapse_dominance $ n_detect_arg $ csv $ robust_term
          $ obs_term)

(* ------------------------------ atpg ------------------------------- *)

let atpg_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write generated patterns (one 0/1 row per pattern) to FILE.")
  in
  let use_analysis =
    Arg.(value & flag & info [ "use-analysis" ]
           ~doc:"Build the static implication & dominator engine once and \
                 let PODEM use it: sound pre-search untestability \
                 verdicts, unique sensitization, learned-implication \
                 pruning.  Verdicts are unchanged; search effort shrinks.")
  in
  let learn_depth =
    Arg.(value & opt int 1 & info [ "learn-depth" ] ~docv:"N"
           ~doc:"Implication learning sweeps for $(b,--use-analysis).")
  in
  let backtrack_limit =
    Arg.(value
         & opt (positive_int ~what:"a backtrack limit")
             Tpg.Atpg.default_config.Tpg.Atpg.backtrack_limit
         & info [ "backtrack-limit" ] ~docv:"N"
             ~doc:"Per-fault PODEM backtrack budget; a fault whose search \
                   exceeds it counts as aborted.")
  in
  let podem_budget =
    Arg.(value & opt (some float) None & info [ "podem-budget" ] ~docv:"SECS"
           ~doc:"Per-fault PODEM wall-clock budget; a fault whose search \
                 exceeds it counts as aborted.  Makes verdicts \
                 timing-dependent — prefer $(b,--backtrack-limit) for \
                 reproducible runs.")
  in
  let action circuit out seed use_analysis learn_depth exact backtrack_limit
      podem_budget ({ checkpoint; every; resume; _ } as robust) obs =
    (match podem_budget with
    | Some b when not (0.0 < b) -> usage_error "--podem-budget must be > 0 (got %g)" b
    | _ -> ());
    let cancel = robust_setup robust in
    let note =
      with_obs ~seed ~circuit:circuit.Circuit.Netlist.name ~cancel obs
      @@ fun () ->
      let universe = Faults.Universe.all circuit in
      let classes = Faults.Collapse.equivalence circuit universe in
      let reps = Faults.Collapse.representatives classes in
      let config =
        { Tpg.Atpg.default_config with
          Tpg.Atpg.seed; use_analysis; learn_depth; exact_budget = exact;
          backtrack_limit; podem_time_budget_s = podem_budget }
      in
      let checkpointing =
        Option.map (fun path -> { Tpg.Atpg.path; every; resume }) checkpoint
      in
      let report =
        Tpg.Atpg.run ~config ~cancel ?checkpoint:checkpointing circuit reps
      in
      Format.eprintf "%a@." Circuit.Netlist.pp_summary circuit;
      Printf.printf "faults: %d collapsed\n" (Array.length reps);
      Printf.printf "patterns: %d (%d random + %d deterministic)\n"
        (Array.length report.Tpg.Atpg.patterns)
        report.Tpg.Atpg.random_patterns
        report.Tpg.Atpg.deterministic_patterns;
      Printf.printf "coverage: %.2f%%\n" (100.0 *. Tpg.Atpg.coverage report);
      Printf.printf "untestable (proved redundant): %d\n"
        report.Tpg.Atpg.untestable;
      Printf.printf "aborted: %d\n" report.Tpg.Atpg.aborted;
      if report.Tpg.Atpg.unknown > 0 then
        Printf.printf "unknown (no verdict before cancellation): %d\n"
          report.Tpg.Atpg.unknown;
      (match out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Array.iter
          (fun pattern ->
            Array.iter
              (fun b -> output_char oc (if b then '1' else '0'))
              pattern;
            output_char oc '\n')
          report.Tpg.Atpg.patterns;
        close_out oc;
        Printf.eprintf "patterns written to %s\n" path);
      if report.Tpg.Atpg.unknown = 0 then ""
      else
        Printf.sprintf "; %d targets unresolved%s" report.Tpg.Atpg.unknown
          (match checkpoint with
          | Some path ->
            Printf.sprintf ", durable in %s (--resume continues)" path
          | None -> "")
    in
    robust_finish ~note cancel
  in
  let doc = "Generate a test set (random + PODEM) for a circuit." in
  Cmd.v (Cmd.info "atpg" ~doc)
    Term.(const action $ circuit_arg $ out $ seed_arg $ use_analysis
          $ learn_depth $ exact_arg $ backtrack_limit $ podem_budget
          $ robust_term $ obs_term)

(* ------------------------------ convert ----------------------------- *)

let convert_cmd =
  let bench_out =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"FILE"
           ~doc:"Write the netlist in .bench format.")
  in
  let verilog_out =
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE"
           ~doc:"Write the netlist as structural Verilog.")
  in
  let action circuit bench_out verilog_out =
    Format.eprintf "%a@." Circuit.Netlist.pp_summary circuit;
    (match bench_out with
    | Some path ->
      Circuit.Bench_format.write_file path circuit;
      Printf.eprintf "wrote %s\n" path
    | None -> ());
    match verilog_out with
    | Some path ->
      Circuit.Verilog.write_file path circuit;
      Printf.eprintf "wrote %s\n" path
    | None -> ()
  in
  let doc = "Convert a circuit between generator specs, .bench and Verilog." in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(const action $ circuit_arg $ bench_out $ verilog_out)

(* ----------------------------- diagnose ----------------------------- *)

let diagnose_cmd =
  let patterns_count =
    Arg.(value & opt int 128 & info [ "n"; "patterns" ] ~docv:"N"
           ~doc:"Random patterns in the diagnostic program.")
  in
  let fault_index =
    Arg.(value & opt (some int) None & info [ "inject" ] ~docv:"I"
           ~doc:"Universe index of the fault to inject (default: random).")
  in
  let action circuit count fault_index seed =
    let rng = Stats.Rng.create ~seed () in
    let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
    let universe = Faults.Collapse.representatives classes in
    let patterns = Tpg.Random_tpg.uniform rng circuit ~count in
    (* The culprit is chosen, and an out-of-range --inject rejected,
       before anything is printed; building the dictionary draws nothing
       from [rng]. *)
    let culprit =
      match fault_index with
      | Some i when i >= 0 && i < Array.length universe -> i
      | Some _ -> failwith "fault index out of range"
      | None -> Stats.Rng.int rng (Array.length universe)
    in
    let dictionary = Fsim.Diagnosis.build circuit universe patterns in
    let distinguishable, total = Fsim.Diagnosis.distinguishable_pairs dictionary in
    Printf.printf "dictionary: %d faults x %d patterns; resolution %d/%d pairs\n"
      (Array.length universe) count distinguishable total;
    Printf.printf "injected: %s\n"
      (Faults.Fault.to_string circuit universe.(culprit));
    let observation = Fsim.Diagnosis.observe circuit [| universe.(culprit) |] patterns in
    Printf.printf "observed %d failing patterns\n" (List.length observation);
    (match Fsim.Diagnosis.exact_matches dictionary observation with
    | [] -> print_endline "no exact match (escaped or unmodeled)"
    | matches ->
      Printf.printf "exact matches:\n";
      List.iter
        (fun i ->
          Printf.printf "  %s%s\n"
            (Faults.Fault.to_string circuit universe.(i))
            (if i = culprit then "  <- injected" else ""))
        matches)
  in
  let doc = "Build a fault dictionary and diagnose an injected fault." in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(const action $ circuit_arg $ patterns_count $ fault_index $ seed_arg)

(* ------------------------------ compact ----------------------------- *)

let compact_cmd =
  let action circuit seed =
    let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
    let universe = Faults.Collapse.representatives classes in
    let config = { Tpg.Atpg.default_config with Tpg.Atpg.seed } in
    let report = Tpg.Atpg.run ~config circuit universe in
    let original = Array.length report.Tpg.Atpg.patterns in
    let reverse = Tpg.Compact.reverse_order circuit universe report.Tpg.Atpg.patterns in
    let forward = Tpg.Compact.forward_order circuit universe report.Tpg.Atpg.patterns in
    Printf.printf "original: %d patterns, coverage %.2f%%\n" original
      (100.0 *. Tpg.Atpg.coverage report);
    Printf.printf "reverse-order compaction: %d patterns (%.0f%%)\n"
      (Array.length reverse.Tpg.Compact.kept)
      (100.0 *. Tpg.Compact.compaction_ratio reverse);
    Printf.printf "forward-order compaction: %d patterns (%.0f%%)\n"
      (Array.length forward.Tpg.Compact.kept)
      (100.0 *. Tpg.Compact.compaction_ratio forward)
  in
  let doc = "Generate a test set and statically compact it." in
  Cmd.v (Cmd.info "compact" ~doc) Term.(const action $ circuit_arg $ seed_arg)

(* ------------------------------ stafan ------------------------------ *)

let stafan_cmd =
  let patterns_count =
    Arg.(value & opt int 128 & info [ "n"; "patterns" ] ~docv:"N"
           ~doc:"Random patterns to analyze.")
  in
  let action circuit count seed =
    let rng = Stats.Rng.create ~seed () in
    let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
    let universe = Faults.Collapse.representatives classes in
    let patterns = Tpg.Random_tpg.uniform rng circuit ~count in
    let st = Fsim.Stafan.analyze circuit patterns in
    let profile = Fsim.Coverage.profile circuit universe patterns in
    Printf.printf "%-10s %-12s %-12s\n" "patterns" "actual" "STAFAN";
    List.iter
      (fun k ->
        if k <= count then
          Printf.printf "%-10d %-12.4f %-12.4f\n" k
            (Fsim.Coverage.coverage_after profile k)
            (Fsim.Stafan.expected_coverage st universe ~pattern_count:k))
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ];
    (* The ten hardest faults by SCOAP, with their STAFAN detection
       probabilities. *)
    let scoap = Tpg.Scoap.analyze circuit in
    print_endline "\nhardest faults (SCOAP difficulty | STAFAN detection probability):";
    List.iter
      (fun (fault, difficulty) ->
        Printf.printf "  %-20s %8d   %.6f\n"
          (Faults.Fault.to_string circuit fault)
          difficulty
          (Fsim.Stafan.detection_probability st fault))
      (Tpg.Scoap.hardest_faults scoap circuit universe ~count:10)
  in
  let doc = "Statistical fault analysis: coverage prediction without fault simulation." in
  Cmd.v (Cmd.info "stafan" ~doc)
    Term.(const action $ circuit_arg $ patterns_count $ seed_arg)

(* ------------------------------ sample ------------------------------ *)

let sample_cmd =
  let patterns_count =
    Arg.(value & opt int 128 & info [ "n"; "patterns" ] ~docv:"N" ~doc:"Patterns.")
  in
  let sample_size =
    Arg.(value & opt int 500 & info [ "sample" ] ~docv:"K" ~doc:"Fault sample size.")
  in
  let collapse_dominance =
    Arg.(value & flag & info [ "collapse-dominance" ]
           ~doc:"Sample from the dominance-collapsed universe.")
  in
  let action circuit count sample_size collapse_dominance n_detect seed =
    let rng = Stats.Rng.create ~seed () in
    let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
    let universe = Faults.Collapse.representatives classes in
    let patterns = Tpg.Random_tpg.uniform rng circuit ~count in
    let est =
      Fsim.Sampling.estimate_coverage ~collapse_dominance ?n_detect rng circuit
        universe ~sample_size patterns
    in
    let label =
      match n_detect with
      | Some n when n > 1 -> Printf.sprintf "sampled %d-detect coverage" n
      | Some _ | None -> "sampled coverage"
    in
    Printf.printf
      "%s: %.4f +- %.4f (95%%: [%.4f, %.4f]) from %d of %d faults\n" label
      est.Fsim.Sampling.coverage est.Fsim.Sampling.std_error
      est.Fsim.Sampling.lower_95 est.Fsim.Sampling.upper_95
      est.Fsim.Sampling.sample_size est.Fsim.Sampling.universe_size;
    let exact =
      match n_detect with
      | None -> Fsim.Coverage.final_coverage (Fsim.Coverage.profile circuit universe patterns)
      | Some n ->
        Fsim.Coverage.n_detect_coverage
          (Fsim.Coverage.detection_counts ~n circuit universe patterns)
    in
    Printf.printf "exact coverage:   %.4f\n" exact
  in
  let doc = "Estimate fault coverage from a random fault sample (with CI)." in
  Cmd.v (Cmd.info "sample-coverage" ~doc)
    Term.(const action $ circuit_arg $ patterns_count $ sample_size
          $ collapse_dominance $ n_detect_arg $ seed_arg)

(* ------------------------------- lint ------------------------------- *)

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let fail_on =
    fail_on_arg ~default:`Never
      "Exit non-zero when diagnostics at severity $(docv) (never, warning, \
       error) or worse are present."
  in
  let fanout_threshold =
    Arg.(value & opt int Lint.Driver.default_config.Lint.Driver.fanout_threshold
         & info [ "fanout-threshold" ] ~docv:"N"
             ~doc:"Warn on stems with fanout above $(docv).")
  in
  let structural_only =
    Arg.(value & flag & info [ "structural-only" ]
           ~doc:"Skip the untestable-fault and SCOAP analyses; report only \
                 structural rules.")
  in
  let learn_depth =
    Arg.(value & opt (some int) None & info [ "learn-depth" ] ~docv:"D"
           ~doc:"Enable the static analysis engine (dominators + implication \
                 learning at depth $(docv)) for the stronger \
                 learned-implication and blocked-dominator untestability \
                 proofs.")
  in
  let action circuit json fail_on fanout_threshold structural_only learn_depth
      exact obs =
    let report =
      with_obs ~circuit:circuit.Circuit.Netlist.name obs @@ fun () ->
      let config =
        { Lint.Driver.default_config with
          Lint.Driver.fanout_threshold; testability = not structural_only;
          learn_depth; exact_budget = exact }
      in
      let report = Lint.Driver.run ~config circuit in
      if json then
        print_endline
          (Report.Json.to_string_pretty (Lint.Driver.render_json report))
      else print_string (Lint.Driver.render_text report);
      report
    in
    fail_on_exit fail_on ~errors:(report.Lint.Driver.errors > 0)
      ~warnings:(report.Lint.Driver.warnings > 0)
  in
  let doc =
    "Static analysis of a netlist: structural rules (constant nets, dead \
     logic, floating inputs, duplicate fanins, fanout/reconvergence) plus \
     statically untestable stuck-at faults and SCOAP hard-to-detect warnings."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const action $ circuit_arg $ json $ fail_on $ fanout_threshold
          $ structural_only $ learn_depth $ exact_arg $ obs_term)

(* ------------------------------ analyze ----------------------------- *)

let analyze_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let fail_on =
    fail_on_arg ~default:`Never
      "Exit non-zero at severity $(docv) (never, warning, error) or worse: \
       errors are implication-engine contradictions (engine self-check), \
       warnings are untestable faults and unobservable stems."
  in
  let learn_depth =
    Arg.(value & opt int 1 & info [ "learn-depth" ] ~docv:"D"
           ~doc:"Implication learning sweeps (0 disables learning).")
  in
  let show_dominators =
    Arg.(value & flag & info [ "dominators" ]
           ~doc:"List every node's dominator chain (nearest first).")
  in
  let show_implications =
    Arg.(value & flag & info [ "implications" ]
           ~doc:"List learned constants and each literal's implications.")
  in
  let action circuit json fail_on learn_depth show_dominators show_implications
      obs =
    let errors, warnings =
      with_obs ~circuit:circuit.Circuit.Netlist.name obs @@ fun () ->
      let module N = Circuit.Netlist in
      let engine =
        Analysis.Engine.build ~learn_depth:(Some learn_depth) circuit
      in
      let dom = Analysis.Engine.dominators engine in
      let imp =
        match Analysis.Engine.implication engine with
        | Some imp -> imp
        | None -> assert false (* learn_depth is always Some here *)
      in
      let name id = circuit.N.node_names.(id) in
      let num_nodes = N.num_nodes circuit in
      let unobservable = Analysis.Dominators.unobservable_stems dom in
      let constants = Analysis.Implication.constants imp in
      let contradictory = Analysis.Implication.contradictory imp in
      let universe = Faults.Universe.all circuit in
      let classes = Faults.Collapse.equivalence circuit universe in
      let equivalence_reps = Faults.Collapse.representatives classes in
      let dominance_reps = Faults.Collapse.dominance circuit classes in
      let untestable =
        Lint.Testability.untestable ~classes ~analysis:engine circuit universe
      in
      let with_idom =
        let count = ref 0 in
        for id = 0 to num_nodes - 1 do
          if Analysis.Dominators.idom dom id <> None then incr count
        done;
        !count
      in
      let errors = List.length contradictory in
      let warnings = Array.length untestable + List.length unobservable in
      let literal_rows f =
        for id = 0 to num_nodes - 1 do
          List.iter
            (fun v ->
              match Analysis.Implication.consequences imp id v with
              | None | Some [] -> ()
              | Some consequences -> f id v consequences)
            [ false; true ]
        done
      in
      if json then begin
        let fault_row (fault, reason) =
          Report.Json.Obj
            [ ("fault", Report.Json.String (Faults.Fault.to_string circuit fault));
              ("reason",
               Report.Json.String (Lint.Testability.reason_to_string reason)) ]
        in
        let dominator_rows () =
          List.filter_map
            (fun id ->
              match Analysis.Dominators.dominators dom id with
              | [] -> None
              | chain ->
                Some
                  (Report.Json.Obj
                     [ ("node", Report.Json.String (name id));
                       ("dominators",
                        Report.Json.List
                          (List.map (fun d -> Report.Json.String (name d)) chain))
                     ]))
            (List.init num_nodes Fun.id)
        in
        let implication_rows () =
          let rows = ref [] in
          literal_rows (fun id v consequences ->
              rows :=
                Report.Json.Obj
                  [ ("node", Report.Json.String (name id));
                    ("value", Report.Json.Bool v);
                    ("implies",
                     Report.Json.List
                       (List.map
                          (fun (m, w) ->
                            Report.Json.Obj
                              [ ("node", Report.Json.String (name m));
                                ("value", Report.Json.Bool w) ])
                          consequences)) ]
                :: !rows);
          List.rev !rows
        in
        let base =
          [ ("circuit",
             Report.Json.Obj
               [ ("name", Report.Json.String circuit.N.name);
                 ("inputs", Report.Json.Int (N.num_inputs circuit));
                 ("outputs", Report.Json.Int (N.num_outputs circuit));
                 ("gates", Report.Json.Int (N.num_gates circuit));
                 ("depth", Report.Json.Int (N.depth circuit)) ]);
            ("dominators",
             Report.Json.Obj
               ([ ("nodes", Report.Json.Int num_nodes);
                  ("with_idom", Report.Json.Int with_idom);
                  ("unobservable_stems",
                   Report.Json.List
                     (List.map (fun id -> Report.Json.String (name id))
                        unobservable)) ]
               @
               if show_dominators then
                 [ ("chains", Report.Json.List (dominator_rows ())) ]
               else []));
            ("implications",
             Report.Json.Obj
               ([ ("depth", Report.Json.Int learn_depth);
                  ("rounds", Report.Json.Int (Analysis.Implication.rounds imp));
                  ("learned",
                   Report.Json.Int (Analysis.Implication.learned_count imp));
                  ("implications",
                   Report.Json.Int (Analysis.Implication.direct_count imp));
                  ("constants",
                   Report.Json.List
                     (List.map
                        (fun (id, v) ->
                          Report.Json.Obj
                            [ ("node", Report.Json.String (name id));
                              ("value", Report.Json.Bool v) ])
                        constants));
                  ("contradictory",
                   Report.Json.List
                     (List.map (fun id -> Report.Json.String (name id))
                        contradictory)) ]
               @
               if show_implications then
                 [ ("literals", Report.Json.List (implication_rows ())) ]
               else []));
            ("collapse",
             Report.Json.Obj
               [ ("universe", Report.Json.Int (Array.length universe));
                 ("equivalence", Report.Json.Int (Array.length equivalence_reps));
                 ("dominance", Report.Json.Int (Array.length dominance_reps)) ]);
            ("untestable",
             Report.Json.List (Array.to_list untestable |> List.map fault_row));
            ("summary",
             Report.Json.Obj
               [ ("errors", Report.Json.Int errors);
                 ("warnings", Report.Json.Int warnings) ]) ]
        in
        print_endline (Report.Json.to_string_pretty (Report.Json.Obj base))
      end
      else begin
        Format.printf "%a@." N.pp_summary circuit;
        Printf.printf
          "dominators: %d/%d nodes with an immediate dominator, %d \
           unobservable stem%s\n"
          with_idom num_nodes
          (List.length unobservable)
          (if List.length unobservable = 1 then "" else "s");
        Printf.printf
          "implications: depth %d, %d round%s, %d learned edges, %d \
           implications, %d constant%s\n"
          learn_depth
          (Analysis.Implication.rounds imp)
          (if Analysis.Implication.rounds imp = 1 then "" else "s")
          (Analysis.Implication.learned_count imp)
          (Analysis.Implication.direct_count imp)
          (List.length constants)
          (if List.length constants = 1 then "" else "s");
        Printf.printf "collapse: %d universe -> %d equivalence -> %d dominance\n"
          (Array.length universe)
          (Array.length equivalence_reps)
          (Array.length dominance_reps);
        Printf.printf "untestable: %d of %d faults proven\n"
          (Array.length untestable) (Array.length universe);
        if contradictory <> [] then
          Printf.printf "ERROR: %d contradictory node%s (engine self-check): %s\n"
            (List.length contradictory)
            (if List.length contradictory = 1 then "" else "s")
            (String.concat " " (List.map name contradictory));
        if constants <> [] then
          Printf.printf "constants: %s\n"
            (String.concat " "
               (List.map
                  (fun (id, v) -> Printf.sprintf "%s=%d" (name id)
                      (if v then 1 else 0))
                  constants));
        if show_dominators then begin
          print_endline "\ndominator chains (nearest first):";
          for id = 0 to num_nodes - 1 do
            match Analysis.Dominators.dominators dom id with
            | [] -> ()
            | chain ->
              Printf.printf "  %-12s %s\n" (name id)
                (String.concat " > " (List.map name chain))
          done
        end;
        if show_implications then begin
          print_endline "\nimplications:";
          literal_rows (fun id v consequences ->
              Printf.printf "  %s=%d => %s\n" (name id) (if v then 1 else 0)
                (String.concat " "
                   (List.map
                      (fun (m, w) ->
                        Printf.sprintf "%s=%d" (name m) (if w then 1 else 0))
                      consequences)))
        end;
        if Array.length untestable > 0 then begin
          print_endline "\nuntestable faults:";
          Array.iter
            (fun (fault, reason) ->
              Printf.printf "  %-20s %s\n"
                (Faults.Fault.to_string circuit fault)
                (Lint.Testability.reason_to_string reason))
            untestable
        end
      end;
      (errors, warnings)
    in
    fail_on_exit fail_on ~errors:(errors > 0) ~warnings:(warnings > 0)
  in
  let doc =
    "Static implication and dominator analysis: per-stem absolute dominators, \
     SOCRATES-style learned implications and constants, dominance-based fault \
     collapsing, and the untestable faults the combined engine proves."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const action $ circuit_arg $ json $ fail_on $ learn_depth
          $ show_dominators $ show_implications $ obs_term)

(* ---------------------------- testability --------------------------- *)

let testability_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Emit the predicted coverage curve as CSV (patterns, \
                 coverage_lo, coverage_hi[, reject_lo, reject_hi]) on \
                 stdout; status text goes to stderr.")
  in
  let threshold =
    Arg.(value & opt float 0.01 & info [ "threshold" ] ~docv:"T"
           ~doc:"Detection-probability bound below which a fault counts as \
                 random-pattern-resistant.")
  in
  let predict_curve =
    Arg.(value & opt (some (list int)) None
         & info [ "predict-curve" ] ~docv:"N1,N2,..."
             ~doc:"Pattern counts for the predicted-coverage band rows \
                   (default 1,4,16,64,256,1024).")
  in
  let test_length =
    Arg.(value & opt (some float) None & info [ "test-length" ] ~docv:"F"
           ~doc:"Also report the smallest pattern counts at which the \
                 guaranteed (band lower edge) and optimistic (upper edge) \
                 predicted coverage reach $(docv).")
  in
  let max_patterns =
    Arg.(value & opt int 65536 & info [ "max-patterns" ] ~docv:"N"
           ~doc:"Search bound for $(b,--test-length).")
  in
  let yield_opt =
    Arg.(value & opt (some float) None & info [ "y"; "yield" ] ~docv:"Y"
           ~doc:"Process yield: adds the predicted field reject-rate band \
                 r(f(n)) (paper Eq. 8 on the coverage band) to every curve \
                 row.")
  in
  let fail_on =
    fail_on_arg ~default:`Never
      "Exit non-zero at severity $(docv) (never, warning, error) or worse: \
       errors are detection-bound self-check violations (an interval outside \
       [0,1] or inverted, or an exact BDD probability outside its interval \
       band), warnings are random-pattern-resistant faults and an exceeded \
       $(b,--exact) node budget."
  in
  let action circuit json csv threshold predict_curve test_length max_patterns
      yield_opt n0 fail_on exact obs =
    let errors, warnings =
      with_obs ~circuit:circuit.Circuit.Netlist.name obs @@ fun () ->
      let module N = Circuit.Netlist in
      let module SP = Analysis.Signal_prob in
      let module D = Analysis.Detectability in
      let sp = SP.analyze circuit in
      let det = D.analyze sp in
      let universe = Faults.Universe.all circuit in
      let classes = Faults.Collapse.equivalence circuit universe in
      let reps = Faults.Collapse.representatives classes in
      let untestable = D.untestable det reps in
      let resistant = D.resistant det reps ~threshold in
      let module E = Analysis.Exact in
      let exact_t = Option.map (fun budget -> E.analyze ~budget circuit) exact in
      (* Self-check: every published interval must be a genuine
         subinterval of [0,1], and every exact BDD probability must lie
         inside its interval band.  A violation is an engine bug, never
         a property of the circuit. *)
      let violations =
        Array.fold_left
          (fun acc fault ->
            let d = D.detection det fault in
            let interval_bad =
              d.SP.lo < 0.0 || d.SP.hi > 1.0 || d.SP.lo > d.SP.hi
            in
            let exact_bad =
              match Option.map (fun ex -> E.verdict ex fault) exact_t with
              | Some (E.Testable p) ->
                p < d.SP.lo -. 1e-9 || p > d.SP.hi +. 1e-9
              | Some E.Untestable -> d.SP.lo > 1e-9
              | Some E.Unknown | None -> false
            in
            if interval_bad || exact_bad then acc + 1 else acc)
          0 reps
      in
      let counts =
        match predict_curve with
        | Some counts -> Array.of_list counts
        | None -> [| 1; 4; 16; 64; 256; 1024 |]
      in
      let curve =
        match exact_t with
        | None -> D.predicted_curve det reps ~counts
        | Some ex -> E.predicted_curve ex det reps ~counts
      in
      let exact_incomplete =
        match exact_t with Some ex -> not (E.complete ex) | None -> false
      in
      let reject_band f_band =
        Option.map
          (fun y ->
            Quality.Reject.reject_band ~yield_:y ~n0 (f_band.SP.lo, f_band.SP.hi))
          yield_opt
      in
      let lengths =
        Option.map
          (fun target -> D.test_length det reps ~target ~max_patterns)
          test_length
      in
      if csv then begin
        Format.eprintf "%a@." N.pp_summary circuit;
        let header =
          [ "patterns"; "coverage_lo"; "coverage_hi" ]
          @ (if yield_opt = None then [] else [ "reject_lo"; "reject_hi" ])
        in
        print_string
          (Report.Csv.of_rows
             (header
             :: (Array.to_list curve
                |> List.map (fun (n, band) ->
                       [ string_of_int n;
                         Printf.sprintf "%.6f" band.SP.lo;
                         Printf.sprintf "%.6f" band.SP.hi ]
                       @
                       match reject_band band with
                       | None -> []
                       | Some (r_lo, r_hi) ->
                         [ Printf.sprintf "%.6f" r_lo;
                           Printf.sprintf "%.6f" r_hi ]))))
      end
      else if json then begin
        let interval_json (i : SP.interval) =
          Report.Json.Obj
            [ ("lo", Report.Json.Float i.SP.lo); ("hi", Report.Json.Float i.SP.hi) ]
        in
        let fault_json fault =
          Report.Json.String (Faults.Fault.to_string circuit fault)
        in
        let curve_json =
          Report.Json.List
            (Array.to_list curve
            |> List.map (fun (n, band) ->
                   Report.Json.Obj
                     ([ ("patterns", Report.Json.Int n);
                        ("coverage", interval_json band) ]
                     @
                     match reject_band band with
                     | None -> []
                     | Some (r_lo, r_hi) ->
                       [ ("reject",
                          Report.Json.Obj
                            [ ("lo", Report.Json.Float r_lo);
                              ("hi", Report.Json.Float r_hi) ]) ])))
        in
        let length_json =
          match lengths with
          | None -> []
          | Some (guaranteed, optimistic) ->
            let field = function
              | Some n -> Report.Json.Int n
              | None -> Report.Json.Null
            in
            [ ("test_length",
               Report.Json.Obj
                 [ ("target", Report.Json.Float (Option.get test_length));
                   ("guaranteed", field guaranteed);
                   ("optimistic", field optimistic);
                   ("max_patterns", Report.Json.Int max_patterns) ]) ]
        in
        print_endline
          (Report.Json.to_string_pretty
             (Report.Json.Obj
                ([ ("circuit",
                    Report.Json.Obj
                      [ ("name", Report.Json.String circuit.N.name);
                        ("inputs", Report.Json.Int (N.num_inputs circuit));
                        ("outputs", Report.Json.Int (N.num_outputs circuit));
                        ("gates", Report.Json.Int (N.num_gates circuit)) ]);
                   ("signal_probabilities",
                    Report.Json.Obj
                      [ ("cut_stems", Report.Json.Int (SP.cut_count sp));
                        ("exact", Report.Json.Bool (D.exact det)) ]);
                   ("faults",
                    Report.Json.Obj
                      [ ("universe", Report.Json.Int (Array.length universe));
                        ("representatives", Report.Json.Int (Array.length reps)) ]);
                   ("untestable", Report.Json.List (List.map fault_json untestable)) ]
                @ (match exact_t with
                  | None -> []
                  | Some ex ->
                    [ ("exact",
                       Report.Json.Obj
                         [ ("budget", Report.Json.Int (E.node_budget ex));
                           ("complete", Report.Json.Bool (E.complete ex));
                           ("unknown", Report.Json.Int (E.unknown_count ex));
                           ("nodes", Report.Json.Int (E.node_count ex));
                           ("cache_hit_rate",
                            Report.Json.Float (E.cache_hit_rate ex));
                           ("untestable",
                            Report.Json.List
                              (List.map fault_json (E.untestable ex reps))) ])
                    ])
                @ [ ("resistant",
                    Report.Json.Obj
                      [ ("threshold", Report.Json.Float threshold);
                        ("faults",
                         Report.Json.List
                           (List.map
                              (fun (fault, d) ->
                                Report.Json.Obj
                                  [ ("fault", fault_json fault);
                                    ("detection", interval_json d) ])
                              resistant)) ]);
                   ("curve", curve_json) ]
                @ length_json
                @ [ ("summary",
                     Report.Json.Obj
                       [ ("errors", Report.Json.Int violations);
                         ("warnings", Report.Json.Int (List.length resistant)) ])
                  ])))
      end
      else begin
        Format.printf "%a@." N.pp_summary circuit;
        Printf.printf
          "signal probabilities: %d reconvergent stem%s cut, bounds are %s\n"
          (SP.cut_count sp)
          (if SP.cut_count sp = 1 then "" else "s")
          (if D.exact det then "exact (fanout-free)" else "sound intervals");
        Printf.printf "faults: %d universe, %d collapsed\n"
          (Array.length universe) (Array.length reps);
        Printf.printf "untestable (detection probability provably 0): %d\n"
          (List.length untestable);
        (match exact_t with
        | None -> ()
        | Some ex ->
          Printf.printf
            "exact BDD: %d/%d classified (%d unknown), %d nodes, cache hit \
             rate %.2f\n"
            (E.universe_size ex - E.unknown_count ex)
            (E.universe_size ex) (E.unknown_count ex) (E.node_count ex)
            (E.cache_hit_rate ex);
          Printf.printf "untestable (BDD-proved): %d\n"
            (List.length (E.untestable ex reps)));
        Printf.printf "random-pattern-resistant (d < %g): %d\n" threshold
          (List.length resistant);
        List.iter
          (fun (fault, d) ->
            Printf.printf "  %-20s d in [%.6f, %.6f]\n"
              (Faults.Fault.to_string circuit fault) d.SP.lo d.SP.hi)
          resistant;
        print_endline "\npredicted coverage of n uniform random patterns:";
        Array.iter
          (fun (n, band) ->
            Printf.printf "  n=%-6d f in [%.4f, %.4f]%s\n" n band.SP.lo
              band.SP.hi
              (match reject_band band with
              | None -> ""
              | Some (r_lo, r_hi) ->
                Printf.sprintf "   reject in [%.6f, %.6f]" r_lo r_hi))
          curve;
        (match lengths with
        | None -> ()
        | Some (guaranteed, optimistic) ->
          let show = function
            | Some n -> string_of_int n
            | None -> Printf.sprintf "> %d" max_patterns
          in
          Printf.printf
            "test length for coverage %.4f: guaranteed %s, optimistic %s\n"
            (Option.get test_length) (show guaranteed) (show optimistic));
        if violations > 0 then
          Printf.printf "ERROR: %d detection bound%s failed the [0,1] self-check\n"
            violations
            (if violations = 1 then "" else "s")
      end;
      (violations > 0, resistant <> [] || exact_incomplete)
    in
    fail_on_exit fail_on ~errors ~warnings
  in
  let doc =
    "Static random-pattern testability: signal-probability bounds \
     (Parker-McCluskey with cutting at reconvergent fanout), per-fault \
     detection-probability intervals, predicted coverage and reject-rate \
     bands, and random-pattern-resistant fault identification - all without \
     fault simulation."
  in
  Cmd.v (Cmd.info "testability" ~doc)
    Term.(const action $ circuit_arg $ json $ csv $ threshold $ predict_curve
          $ test_length $ max_patterns $ yield_opt $ n0_arg $ fail_on
          $ exact_arg $ obs_term)

(* ------------------------------ equiv ------------------------------ *)

let equiv_cmd =
  let circuit_a =
    Arg.(required & pos 0 (some Circuit_arg.conv) None
         & info [] ~docv:"A"
             ~doc:"First circuit: a .bench file or a generator spec.")
  in
  let circuit_b =
    Arg.(required & pos 1 (some Circuit_arg.conv) None
         & info [] ~docv:"B" ~doc:"Second circuit, same interface names.")
  in
  let budget =
    Arg.(value & opt int Bdd.Robdd.default_budget
         & info [ "budget" ] ~docv:"NODES"
             ~doc:"ROBDD node budget for the shared manager holding both \
                   circuits; past it the check is inconclusive.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON.")
  in
  let fail_on =
    fail_on_arg ~default:`Error
      "Exit non-zero at severity $(docv) or worse: a mismatch is an error, an \
       exceeded node budget (no verdict) a warning.  Default error — unlike \
       lint, an inequivalence is the finding the command exists to catch.  \
       Interface disagreements (different input or output names) are usage \
       errors: exit code 2 at any level."
  in
  let action a b budget json fail_on obs =
    let severity =
      with_obs obs @@ fun () ->
      match Bdd.Equiv.check ~budget a b with
      | Error e ->
        Printf.eprintf "equiv: %s\n" (Bdd.Equiv.error_to_string e);
        `Usage
      | Ok verdict ->
        Format.eprintf "A: %a@.B: %a@." Circuit.Netlist.pp_summary a
          Circuit.Netlist.pp_summary b;
        let json_out fields =
          print_endline
            (Report.Json.to_string_pretty (Report.Json.Obj fields))
        in
        (match verdict with
        | Bdd.Equiv.Equivalent ->
          if json then
            json_out [ ("verdict", Report.Json.String "equivalent") ]
          else
            Printf.printf "equivalent: %s == %s on all %d inputs\n"
              a.Circuit.Netlist.name b.Circuit.Netlist.name
              (Circuit.Netlist.num_inputs a);
          `Clean
        | Bdd.Equiv.Mismatch { output; pattern } ->
          if json then
            json_out
              [ ("verdict", Report.Json.String "mismatch");
                ("output", Report.Json.String output);
                ("counterexample",
                 Report.Json.Obj
                   (List.map
                      (fun (name, v) -> (name, Report.Json.Bool v))
                      pattern)) ]
          else begin
            Printf.printf "NOT equivalent: output %s differs\n" output;
            print_endline "counterexample:";
            List.iter
              (fun (name, v) ->
                Printf.printf "  %s = %d\n" name (if v then 1 else 0))
              pattern
          end;
          `Mismatch
        | Bdd.Equiv.Inconclusive { nodes } ->
          if json then
            json_out
              [ ("verdict", Report.Json.String "inconclusive");
                ("nodes", Report.Json.Int nodes) ]
          else
            Printf.printf
              "inconclusive: node budget exceeded after %d nodes (raise \
               --budget)\n"
              nodes;
          `Inconclusive)
    in
    match severity with
    | `Usage -> exit 2
    | (`Clean | `Mismatch | `Inconclusive) as s ->
      fail_on_exit fail_on ~errors:(s = `Mismatch) ~warnings:(s = `Inconclusive)
  in
  let doc =
    "Combinational equivalence check of two circuits via a shared ROBDD: \
     interfaces matched by signal name, exact verdict with a distinguishing \
     input pattern on mismatch."
  in
  Cmd.v (Cmd.info "equiv" ~doc)
    Term.(const action $ circuit_a $ circuit_b $ budget $ json $ fail_on
          $ obs_term)

(* --------------------------- experiments --------------------------- *)

(* The analytic figure series as CSV files for external plotting. *)
let write_csv directory =
  if not (Sys.file_exists directory) then Sys.mkdir directory 0o755;
  List.iter
    (fun (name, series) ->
      let path = Filename.concat directory (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Report.Csv.of_series series));
      Printf.eprintf "wrote %s\n" path)
    [ ("fig1", Experiments.Fig1.series ());
      ("fig2", Experiments.Fig2_3_4.series ~reject:0.01);
      ("fig3", Experiments.Fig2_3_4.series ~reject:0.005);
      ("fig4", Experiments.Fig2_3_4.series ~reject:0.001);
      ("fig6", Experiments.Fig6.series ());
      ("fig5",
       Experiments.Fig5.family ~yield_:0.07
       @ [ Experiments.Fig5.paper_points () ]) ];
  ""

(* What a target reads besides its name: the pipeline's seed and domain
   count, the csv target's directory. *)
type experiment_args = { seed : int; domains : int option; dir : string option }

(* Every target of `lsiq experiments`: the one list behind the dispatch,
   the TARGET doc and the unknown-target error.  Each render returns the
   target's stdout. *)
let experiment_targets =
  let figure name reject _ = Experiments.Fig2_3_4.render_figure ~name ~reject in
  let default_run () =
    Experiments.Pipeline.execute Experiments.Pipeline.default_config
  in
  [ ("fig1", fun _ -> Experiments.Fig1.render ());
    ("fig2", figure "Fig.2" 0.01);
    ("fig3", figure "Fig.3" 0.005);
    ("fig4", figure "Fig.4" 0.001);
    ("fig2-4", fun _ -> Experiments.Fig2_3_4.render ());
    ("fig5", fun _ -> Experiments.Fig5.render ~run:(default_run ()) ());
    ("fig6", fun _ -> Experiments.Fig6.render ());
    ("table1", fun _ -> Experiments.Table1.render ~run:(default_run ()) ());
    ("pipeline",
     fun { seed; domains; _ } ->
       (* The end-to-end simulate-lot pipeline with the multicore
          fault-simulation engine, so a trace shows every stage
          boundary and each Fsim.Par domain shard. *)
       let config =
         { Experiments.Pipeline.default_config with
           Experiments.Pipeline.seed;
           fsim_engine =
             Fsim.Coverage.Par { domains = Option.value domains ~default:2 } }
       in
       let run = Experiments.Pipeline.execute config in
       Experiments.Pipeline.summary run ^ "\n"
       ^ Experiments.Table1.render ~run ());
    ("comparison", fun _ -> Experiments.Comparison.render ());
    ("fineline", fun _ -> Experiments.Fineline.render ());
    ("ablation", fun _ -> Experiments.Ablation.render ());
    ("economics", fun _ -> Experiments.Economics_study.render ());
    ("drift", fun _ -> Experiments.Drift.render ());
    ("signature", fun _ -> Experiments.Signature_study.render ());
    ("csv", fun { dir; _ } -> write_csv (Option.get dir)) ]

let experiments_cmd =
  let names = String.concat " " (List.map fst experiment_targets) in
  let target =
    Arg.(value & pos 0 string "comparison" & info [] ~docv:"TARGET"
           ~doc:(names ^ "."))
  in
  let dir =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"DIR"
           ~doc:"Directory the $(b,csv) target writes its CSV files to.")
  in
  let action target dir seed domains obs =
    let render =
      match List.assoc_opt target experiment_targets with
      | Some render -> render
      | None ->
        usage_error "unknown experiment %S\nvalid targets: %s" target names
    in
    (match (target, dir) with
    | "csv", None -> usage_error "the csv target needs a DIR"
    | "csv", Some _ | _, None -> ()
    | _, Some _ -> usage_error "only the csv target takes a DIR");
    print_string (with_obs ~seed obs @@ fun () -> render { seed; domains; dir })
  in
  let doc = "Regenerate one of the paper's figures or tables." in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const action $ target $ dir $ seed_arg $ domains_arg $ obs_term)

(* ------------------------------ report ----------------------------- *)

let report_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL"
           ~doc:"Journal file written by a $(b,--journal) run.")
  in
  let action path =
    match Obs.Journal.read_file path with
    | Ok events -> print_string (Obs.Journal.render_summary events)
    | Error msg ->
      Printf.eprintf "lsiq: %s: %s\n" path msg;
      exit 1
  in
  let doc = "Render a human-readable summary of a --journal run file." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const action $ file)

(* ------------------------------ wafer ------------------------------ *)

let wafer_cmd =
  let diameter =
    Arg.(value & opt int 25 & info [ "diameter" ] ~docv:"D" ~doc:"Wafer width in dies.")
  in
  let target_yield =
    Arg.(value & opt float 0.5 & info [ "target-yield" ] ~docv:"Y"
           ~doc:"Disc-average yield to calibrate to.")
  in
  let action diameter target_yield seed =
    let rng = Stats.Rng.create ~seed () in
    let yield_model =
      Fab.Yield_model.create
        ~defect_density:(Fab.Yield_model.solve_defect_density ~target_yield
                           ~area:1.0 ~variance_ratio:0.25)
        ~area:1.0 ~variance_ratio:0.25
    in
    let defect =
      Fab.Defect.create ~yield_model ~fault_multiplicity:2.0 ~universe_size:1000 ()
    in
    let wafer = Fab.Wafer.fabricate defect rng ~diameter () in
    print_string (Fab.Wafer.render_map wafer);
    let lot = Fab.Wafer.to_lot wafer in
    Printf.printf "dies: %d, yield: %.3f\n" (Fab.Lot.size lot)
      (Fab.Lot.empirical_yield lot);
    Array.iter
      (fun (r, y) -> Printf.printf "  ring r=%.2f yield=%.3f\n" r y)
      (Fab.Wafer.yield_by_ring wafer ~rings:5)
  in
  let doc = "Fabricate and render a simulated wafer map." in
  Cmd.v (Cmd.info "wafer" ~doc) Term.(const action $ diameter $ target_yield $ seed_arg)

(* ------------------------------- main ------------------------------ *)

let () =
  (* Fault-injection drills: arm failpoints from LSIQ_FAILPOINTS before
     any command runs, and point the journal file sink at its
     failpoint.  A malformed spec is a usage error. *)
  (match Robust.Inject.init_from_env () with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "lsiq: %s: %s\n" Robust.Inject.env_var msg;
    exit 2);
  Obs.Journal.set_sink_hook (fun () -> Robust.Inject.hit "journal.sink");
  let doc =
    "Reproduction of Agrawal, Seth & Agrawal, 'LSI Product Quality and Fault \
     Coverage' (DAC 1981)."
  in
  let info = Cmd.info "lsiq" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let cmd =
    Cmd.group ~default info
      [ reject_rate_cmd; required_coverage_cmd; estimate_cmd;
        simulate_lot_cmd; fsim_cmd; atpg_cmd; convert_cmd; diagnose_cmd;
        compact_cmd;
        stafan_cmd; sample_cmd; lint_cmd; analyze_cmd; testability_cmd;
        equiv_cmd; experiments_cmd; wafer_cmd; report_cmd ]
  in
  (* The one error boundary: the libraries reject an input they cannot
     take (a model parameter off its domain, an empty lot, a fault index
     out of range) with Invalid_argument or Failure, a resume from a
     checkpoint another run wrote with Robust.Checkpoint.Mismatch, and
     the OS refuses a path with Sys_error.  Each is a usage error — one
     lsiq: line, exit 2.  Any other exception, the fault-injection
     drills' Robust.Inject.Injected among them, is an internal error and
     exits 125 as cmdliner reports it. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception
        ( Invalid_argument msg | Failure msg | Sys_error msg
        | Robust.Checkpoint.Mismatch msg ) ->
      Printf.eprintf "lsiq: %s\n" msg;
      2
    | exception e ->
      let backtrace = Printexc.get_raw_backtrace () in
      Printf.eprintf "lsiq: internal error, uncaught exception:\n  %s\n%s"
        (Printexc.to_string e)
        (Printexc.raw_backtrace_to_string backtrace);
      Cmd.Exit.internal_error)
