(* Tests for the virtual wafer tester. *)

module F = Faults.Fault

(* A small shared rig: circuit, collapsed universe, graded program. *)
let rig =
  lazy
    (let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
     let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
     let universe = Faults.Collapse.representatives classes in
     let rng = Stats.Rng.create ~seed:55 () in
     let patterns = Tpg.Random_tpg.uniform rng c ~count:96 in
     let program = Tester.Pattern_set.of_simulation c universe patterns in
     (c, universe, program))

let test_pattern_set_basics () =
  let _, universe, program = Lazy.force rig in
  Alcotest.(check int) "pattern count" 96 (Tester.Pattern_set.pattern_count program);
  let final = Tester.Pattern_set.final_coverage program in
  Alcotest.(check bool) "high random coverage" true (final > 0.9);
  Alcotest.(check bool) "coverage monotone" true
    (Tester.Pattern_set.coverage_after program 10
     <= Tester.Pattern_set.coverage_after program 90);
  ignore universe

let test_first_fail_matches_min () =
  let _, universe, program = Lazy.force rig in
  let first = program.Tester.Pattern_set.profile.Fsim.Coverage.first_detection in
  (* For a known pair of detected faults, first_fail = min of indices. *)
  let detected =
    Array.to_list (Array.mapi (fun i d -> (i, d)) first)
    |> List.filter_map (fun (i, d) -> Option.map (fun k -> (i, k)) d)
  in
  (match detected with
  | (i1, k1) :: (i2, k2) :: _ ->
    Alcotest.(check bool) "min rule" true
      (Tester.Pattern_set.first_fail program [| i1; i2 |] = Some (min k1 k2))
  | _ -> Alcotest.fail "expected detected faults");
  ignore universe

let test_first_fail_undetected_chip_passes () =
  let _, universe, program = Lazy.force rig in
  let first = program.Tester.Pattern_set.profile.Fsim.Coverage.first_detection in
  match
    Array.to_list (Array.mapi (fun i d -> (i, d)) first)
    |> List.find_opt (fun (_, d) -> d = None)
  with
  | Some (i, _) ->
    Alcotest.(check bool) "chip with only undetected fault passes" true
      (Tester.Pattern_set.first_fail program [| i |] = None)
  | None ->
    (* Random patterns caught every collapsed fault; nothing to check. *)
    ();
    ignore universe

let test_pattern_set_make_validation () =
  let c, universe, program = Lazy.force rig in
  ignore universe;
  Alcotest.(check bool) "mismatched profile rejected" true
    (try
       ignore
         (Tester.Pattern_set.make
            (Array.sub program.Tester.Pattern_set.patterns 0 5)
            program.Tester.Pattern_set.profile);
       false
     with Invalid_argument _ -> true);
  ignore c

let make_lot universe_size =
  let rng = Stats.Rng.create ~seed:123 () in
  Fab.Lot.manufacture_ideal ~yield_:0.2 ~n0:4.0 ~universe_size rng ~count:300

let test_lot_testing_consistency () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let result = Tester.Wafer_test.test_lot c universe program lot in
  Alcotest.(check int) "all chips tested" 300 (Array.length result.Tester.Wafer_test.outcomes);
  (* Apparent yield = true yield + escapes. *)
  let escapes = Tester.Wafer_test.test_escapes result in
  let apparent = Tester.Wafer_test.apparent_yield result in
  let true_good = Fab.Lot.good_count lot in
  Alcotest.(check (float 1e-9)) "accounting"
    (float_of_int (true_good + escapes) /. 300.0)
    apparent;
  (* Cumulative fail counts are monotone in the pattern index. *)
  let prev = ref 0 in
  for k = 0 to result.Tester.Wafer_test.pattern_count do
    let now = Tester.Wafer_test.failed_by result k in
    Alcotest.(check bool) "monotone" true (now >= !prev);
    prev := now
  done;
  (* Good chips never fail. *)
  Array.iter
    (fun outcome ->
      if outcome.Tester.Wafer_test.fault_count = 0 then
        Alcotest.(check bool) "good chip passes" true
          (outcome.Tester.Wafer_test.first_fail = None))
    result.Tester.Wafer_test.outcomes

let test_lot_universe_mismatch_rejected () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe + 1) in
  Alcotest.(check bool) "universe mismatch" true
    (try
       ignore (Tester.Wafer_test.test_lot c universe program lot);
       false
     with Invalid_argument _ -> true)

let test_rows_at_coverages () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let result = Tester.Wafer_test.test_lot c universe program lot in
  let rows =
    Tester.Wafer_test.rows_at_coverages result program ~coverages:[ 0.5; 0.8; 0.9 ]
  in
  List.iter
    (fun row ->
      Alcotest.(check bool) "coverage reached" true
        (row.Tester.Wafer_test.coverage >= 0.5 -. 1e-9);
      Alcotest.(check bool) "fraction consistent" true
        (abs_float
           (row.Tester.Wafer_test.fraction_failed
           -. (float_of_int row.Tester.Wafer_test.cumulative_failed /. 300.0))
         < 1e-9))
    rows;
  (* Unreachable coverage levels are skipped, not fabricated. *)
  let impossible =
    Tester.Wafer_test.rows_at_coverages result program ~coverages:[ 1.1 ]
  in
  Alcotest.(check int) "skip unreachable" 0 (List.length impossible)

let test_rows_at_patterns_monotone () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let result = Tester.Wafer_test.test_lot c universe program lot in
  let rows =
    Tester.Wafer_test.rows_at_patterns result program ~checkpoints:[ 1; 8; 32; 96 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "coverage up" true
        (a.Tester.Wafer_test.coverage <= b.Tester.Wafer_test.coverage +. 1e-12);
      Alcotest.(check bool) "failures up" true
        (a.Tester.Wafer_test.cumulative_failed <= b.Tester.Wafer_test.cumulative_failed);
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone rows

let test_exact_tester_agrees_on_single_fault_chips () =
  (* For chips with exactly one fault, masking cannot occur, so the
     lookup tester and the exact multi-fault tester must agree. *)
  let c, universe, program = Lazy.force rig in
  let chips =
    Array.init 40 (fun chip_id ->
        { Fab.Lot.chip_id; fault_indices = [| chip_id mod Array.length universe |] })
  in
  let lot = { Fab.Lot.chips; universe_size = Array.length universe } in
  let lookup = Tester.Wafer_test.test_lot ~mode:Tester.Wafer_test.Table_lookup c universe program lot in
  let exact =
    Tester.Wafer_test.test_lot ~mode:Tester.Wafer_test.Exact_multifault c universe program lot
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "same first fail" true
        (o.Tester.Wafer_test.first_fail
        = exact.Tester.Wafer_test.outcomes.(i).Tester.Wafer_test.first_fail))
    lookup.Tester.Wafer_test.outcomes

let test_exact_tester_multifault_lot_runs () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let exact =
    Tester.Wafer_test.test_lot ~mode:Tester.Wafer_test.Exact_multifault c universe program lot
  in
  (* Sanity: a defective chip detected by lookup is usually detected by
     the exact tester too; allow masking to create a small gap but both
     testers must reject the vast majority of defective chips. *)
  let defective = 300 - Fab.Lot.good_count lot in
  let rejected =
    Array.fold_left
      (fun acc o -> if o.Tester.Wafer_test.first_fail <> None then acc + 1 else acc)
      0 exact.Tester.Wafer_test.outcomes
  in
  Alcotest.(check bool) "rejects most defective chips" true
    (float_of_int rejected > 0.85 *. float_of_int defective)

let test_empty_lot_rejected () =
  (* Every fraction the tester reports divides by the lot size; an
     empty lot must be rejected up front, not surface as NaN later. *)
  let c, universe, program = Lazy.force rig in
  let lot = { Fab.Lot.chips = [||]; universe_size = Array.length universe } in
  Alcotest.(check bool) "empty lot rejected" true
    (try
       ignore (Tester.Wafer_test.test_lot c universe program lot);
       false
     with Invalid_argument _ -> true)

let test_failed_by_off_by_one () =
  (* first_fail indices are 0-based and failed_by counts first_fail < k:
     a chip failing the very first pattern is counted by k = 1, never
     by k = 0. *)
  let c, universe, program = Lazy.force rig in
  let first = program.Tester.Pattern_set.profile.Fsim.Coverage.first_detection in
  match
    Array.to_list (Array.mapi (fun i d -> (i, d)) first)
    |> List.find_opt (fun (_, d) -> d = Some 0)
  with
  | None -> Alcotest.fail "expected a fault detected at pattern 0"
  | Some (i, _) ->
    let chips = [| { Fab.Lot.chip_id = 0; fault_indices = [| i |] } |] in
    let lot = { Fab.Lot.chips; universe_size = Array.length universe } in
    let result = Tester.Wafer_test.test_lot c universe program lot in
    Alcotest.(check bool) "fails at pattern 0" true
      (result.Tester.Wafer_test.outcomes.(0).Tester.Wafer_test.first_fail = Some 0);
    Alcotest.(check int) "failed_by 0 = 0" 0 (Tester.Wafer_test.failed_by result 0);
    Alcotest.(check int) "failed_by 1 = 1" 1 (Tester.Wafer_test.failed_by result 1);
    Alcotest.(check (float 1e-12)) "fraction at 1" 1.0
      (Tester.Wafer_test.fraction_failed_by result 1)

let test_rows_at_coverages_binary_equals_linear () =
  (* The binary search over the monotone coverage curve must agree with
     the linear-scan definition at every target, including targets that
     hit a curve value exactly. *)
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let result = Tester.Wafer_test.test_lot c universe program lot in
  let total = result.Tester.Wafer_test.pattern_count in
  let linear_first target =
    let rec search k =
      if k > total then None
      else if Tester.Pattern_set.coverage_after program k >= target then Some k
      else search (k + 1)
    in
    search 1
  in
  let grid = List.init 101 (fun i -> float_of_int i /. 100.0) in
  let exact_values =
    List.init total (fun k -> Tester.Pattern_set.coverage_after program (k + 1))
  in
  let coverages = grid @ exact_values in
  let rows = Tester.Wafer_test.rows_at_coverages result program ~coverages in
  Alcotest.(check (list int)) "same checkpoints"
    (List.filter_map linear_first coverages)
    (List.map (fun r -> r.Tester.Wafer_test.patterns_applied) rows)

let test_n_detect_grading_validation () =
  let c, universe, program = Lazy.force rig in
  let patterns = program.Tester.Pattern_set.patterns in
  Alcotest.(check bool) "n = 0 rejected" true
    (try
       ignore (Tester.Pattern_set.of_simulation ~n_detect:0 c universe patterns);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "first-detection program carries no n-detect profile"
    true (program.Tester.Pattern_set.n_detect = None);
  let graded = Tester.Pattern_set.of_simulation ~n_detect:2 c universe patterns in
  Alcotest.(check bool) "same first-detection profile from the one pass" true
    (graded.Tester.Pattern_set.profile = program.Tester.Pattern_set.profile);
  match graded.Tester.Pattern_set.n_detect with
  | None -> Alcotest.fail "graded program lost its n-detect profile"
  | Some (n, nth) ->
    Alcotest.(check int) "drop rule kept" 2 n;
    (* Needing a second detection can only lower coverage. *)
    Alcotest.(check bool) "2-detect <= 1-detect" true
      (Fsim.Coverage.final_coverage nth
      <= Tester.Pattern_set.final_coverage graded +. 1e-12)

let test_rows_at_n_detect_coverages () =
  let c, universe, program = Lazy.force rig in
  let lot = make_lot (Array.length universe) in
  let result = Tester.Wafer_test.test_lot c universe program lot in
  let patterns = program.Tester.Pattern_set.patterns in
  let nth =
    match
      (Tester.Pattern_set.of_simulation ~n_detect:2 c universe patterns)
        .Tester.Pattern_set.n_detect
    with
    | Some (_, nth) -> nth
    | None -> Alcotest.fail "no n-detect profile"
  in
  let n_detect_view = Tester.Pattern_set.make patterns nth in
  let targets = [ 0.25; 0.5; 0.75 ] in
  let rows =
    Tester.Wafer_test.rows_at_coverages result n_detect_view ~coverages:targets
  in
  Alcotest.(check int) "all targets reachable" (List.length targets)
    (List.length rows);
  List.iter2
    (fun target row ->
      Alcotest.(check bool) "n-detect target reached" true
        (row.Tester.Wafer_test.coverage >= target -. 1e-9);
      Alcotest.(check (float 0.0)) "row reports the n-detect figure"
        (Fsim.Coverage.coverage_after nth row.Tester.Wafer_test.patterns_applied)
        row.Tester.Wafer_test.coverage;
      (* The n-detect axis lags the 1-detect axis: the same target
         needs at least as many patterns. *)
      match Tester.Wafer_test.rows_at_coverages result program ~coverages:[ target ] with
      | [ one ] ->
        Alcotest.(check bool) "n-detect needs >= patterns" true
          (row.Tester.Wafer_test.patterns_applied >= one.Tester.Wafer_test.patterns_applied)
      | _ -> Alcotest.fail "1-detect row missing")
    targets rows

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:60 ~name:"rows_at_coverages binary search = linear scan"
      (pair (int_range 1 60) (int_range 1 40))
      (fun (faults, pattern_count) ->
        (* Synthetic profile with deterministic pseudo-random
           detections; targets include every exact curve value so the
           boundary case (coverage_after k = target) is exercised. *)
        let first_detection =
          Array.init faults (fun i ->
              let h = (i * 2654435761) land 0xFFFF in
              if h mod 3 = 0 then None else Some (h mod pattern_count))
        in
        let profile =
          { Fsim.Coverage.universe_size = faults; pattern_count; first_detection }
        in
        let program = Tester.Pattern_set.make (Array.make pattern_count [||]) profile in
        let result =
          { Tester.Wafer_test.outcomes =
              [| { Tester.Wafer_test.chip_id = 0; fault_count = 0; first_fail = None } |];
            pattern_count;
            lot_size = 1 }
        in
        let linear_first target =
          let rec search k =
            if k > pattern_count then None
            else if Tester.Pattern_set.coverage_after program k >= target then Some k
            else search (k + 1)
          in
          search 1
        in
        let coverages =
          [ 0.0; 0.3; 0.7; 1.0; 1.5 ]
          @ List.init pattern_count (fun k ->
                Tester.Pattern_set.coverage_after program (k + 1))
        in
        let rows = Tester.Wafer_test.rows_at_coverages result program ~coverages in
        List.filter_map linear_first coverages
        = List.map (fun r -> r.Tester.Wafer_test.patterns_applied) rows) ]

(* ----------------------------- signature ----------------------------- *)

let signature_rig =
  lazy
    (let c = Circuit.Generators.alu ~bits:3 in
     let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
     let universe = Faults.Collapse.representatives classes in
     let rng = Stats.Rng.create ~seed:2 () in
     let patterns = Tpg.Random_tpg.uniform rng c ~count:64 in
     (c, universe, patterns))

let test_signature_deterministic () =
  let c, _, patterns = Lazy.force signature_rig in
  let misr = Tester.Signature.create ~width:16 in
  Alcotest.(check int64) "reproducible"
    (Tester.Signature.good_signature misr c patterns)
    (Tester.Signature.good_signature misr c patterns)

let test_signature_fault_free_equals_good () =
  (* An undetected fault must produce the good signature. *)
  let c, universe, patterns = Lazy.force signature_rig in
  let misr = Tester.Signature.create ~width:16 in
  let reference = Tester.Signature.good_signature misr c patterns in
  let first = Fsim.Ppsfp.run c universe patterns in
  Array.iteri
    (fun i fault ->
      if first.(i) = None then
        Alcotest.(check int64) "undetected fault, good signature" reference
          (Tester.Signature.faulty_signature misr c fault patterns))
    universe

let test_signature_aliasing_follows_2_pow_w () =
  let c, universe, patterns = Lazy.force signature_rig in
  List.iter
    (fun width ->
      let misr = Tester.Signature.create ~width in
      let r = Tester.Signature.aliasing_study misr c universe patterns in
      Alcotest.(check int) "partition"
        r.Tester.Signature.detected_by_compare
        (r.Tester.Signature.detected_by_signature + r.Tester.Signature.aliased);
      let expected = 2.0 ** float_of_int (-width) in
      Alcotest.(check bool)
        (Printf.sprintf "w=%d rate %.4f ~ %.4f" width
           r.Tester.Signature.aliasing_rate expected)
        true
        (abs_float (r.Tester.Signature.aliasing_rate -. expected) < 3.0 *. expected +. 0.01))
    [ 2; 4; 8 ]

let test_signature_wide_register_no_aliasing () =
  let c, universe, patterns = Lazy.force signature_rig in
  let misr = Tester.Signature.create ~width:32 in
  let r = Tester.Signature.aliasing_study misr c universe patterns in
  Alcotest.(check int) "no aliasing at 32 bits" 0 r.Tester.Signature.aliased

let test_signature_effective_reject () =
  (* Wide registers converge to the pure-compare reject rate; narrow
     ones inflate it. *)
  let pure = Quality.Reject.reject_rate ~yield_:0.07 ~n0:8.0 0.9 in
  let wide =
    Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0 ~signature_width:48 0.9
  in
  Alcotest.(check (float 1e-6)) "wide = pure" pure wide;
  let narrow =
    Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0 ~signature_width:4 0.9
  in
  Alcotest.(check bool) "narrow inflates" true (narrow > 10.0 *. pure)

let test_lot_size_study_shrinks_error () =
  let rows = Experiments.Drift.lot_size_study ~lots:25 ~sizes:[ 50; 400 ] () in
  match rows with
  | [ small; large ] ->
    Alcotest.(check bool)
      (Printf.sprintf "rmse %.2f -> %.2f" small.Experiments.Drift.rmse
         large.Experiments.Drift.rmse)
      true
      (large.Experiments.Drift.rmse < small.Experiments.Drift.rmse)
  | _ -> Alcotest.fail "two rows"

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "tester.pattern_set",
      [ tc "basics" test_pattern_set_basics;
        tc "first_fail = min of detections" test_first_fail_matches_min;
        tc "undetected-only chip passes" test_first_fail_undetected_chip_passes;
        tc "make validation" test_pattern_set_make_validation;
        tc "n-detect grading validation" test_n_detect_grading_validation ] );
    ( "tester.wafer_test",
      [ tc "lot accounting" test_lot_testing_consistency;
        tc "universe mismatch rejected" test_lot_universe_mismatch_rejected;
        tc "empty lot rejected" test_empty_lot_rejected;
        tc "failed_by counts first_fail < k" test_failed_by_off_by_one;
        tc "rows at coverages" test_rows_at_coverages;
        tc "binary search = linear scan" test_rows_at_coverages_binary_equals_linear;
        tc "rows at n-detect coverages" test_rows_at_n_detect_coverages;
        tc "rows at patterns monotone" test_rows_at_patterns_monotone;
        tc "exact = lookup on single-fault chips" test_exact_tester_agrees_on_single_fault_chips;
        tc "exact tester on multi-fault lot" test_exact_tester_multifault_lot_runs ] );
    ( "tester.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props );
    ( "tester.signature",
      [ tc "deterministic" test_signature_deterministic;
        tc "undetected fault keeps good signature" test_signature_fault_free_equals_good;
        tc "aliasing follows 2^-w" test_signature_aliasing_follows_2_pow_w;
        tc "wide register, no aliasing" test_signature_wide_register_no_aliasing;
        tc "effective reject rate" test_signature_effective_reject;
        tc "lot-size study shrinks error" test_lot_size_study_shrinks_error ] ) ]
