(* Tests for the paper's statistical model (the `quality` library).

   Every numeric claim made in the running text of the paper appears
   here as a regression test. *)

let close = Oracle.close

(* ------------------------ fault distribution ----------------------- *)

let test_eq1_normalizes () =
  List.iter
    (fun (y, n0) ->
      let d = Quality.Fault_distribution.create ~yield_:y ~n0 in
      close ~eps:1e-9 1.0 (Quality.Fault_distribution.total_mass d ~upto:400))
    [ (0.07, 8.0); (0.8, 2.0); (0.2, 10.0); (0.5, 1.0) ]

let test_eq1_p0_is_yield () =
  let d = Quality.Fault_distribution.create ~yield_:0.37 ~n0:5.0 in
  close ~eps:1e-12 0.37 (Quality.Fault_distribution.p d 0)

let test_eq2_average () =
  (* nav = (1-y) n0. *)
  let d = Quality.Fault_distribution.create ~yield_:0.07 ~n0:8.0 in
  close ~eps:1e-12 (0.93 *. 8.0) (Quality.Fault_distribution.average_faults d);
  (* and it matches the explicit sum of n p(n). *)
  let sum = ref 0.0 in
  for n = 0 to 400 do
    sum := !sum +. (float_of_int n *. Quality.Fault_distribution.p d n)
  done;
  close ~eps:1e-9 (0.93 *. 8.0) !sum

let test_eq1_sampling () =
  let d = Quality.Fault_distribution.create ~yield_:0.3 ~n0:6.0 in
  let rng = Stats.Rng.create ~seed:606 () in
  let n = 20_000 in
  let zero = ref 0 and sum = ref 0 and defective = ref 0 in
  for _ = 1 to n do
    let faults = Quality.Fault_distribution.sample d rng in
    if faults = 0 then incr zero
    else begin
      incr defective;
      sum := !sum + faults
    end
  done;
  close ~eps:0.015 0.3 (float_of_int !zero /. float_of_int n);
  close ~eps:0.1 6.0 (float_of_int !sum /. float_of_int !defective)

let test_fault_distribution_validation () =
  Alcotest.(check bool) "n0 < 1 rejected" true
    (try
       ignore (Quality.Fault_distribution.create ~yield_:0.5 ~n0:0.5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------ escape ------------------------------ *)

let test_q0_exact_equals_product_form () =
  (* A.1 as a product: prod_{i=0}^{n-1} (N-m-i)/(N-i). *)
  let total = 500 and faulty = 9 in
  List.iter
    (fun f ->
      let m = int_of_float (Float.round (f *. 500.0)) in
      let product = ref 1.0 in
      for i = 0 to faulty - 1 do
        product := !product *. float_of_int (total - m - i) /. float_of_int (total - i)
      done;
      close ~eps:1e-9 !product (Quality.Escape.q0_exact ~total ~faulty ~coverage:f))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_q0_approximation_quality () =
  (* Paper: for n <= 4 all three forms agree; A.2 coincides with exact
     even for large n; A.3's error is small but noticeable. *)
  let total = 1000 in
  List.iter
    (fun f ->
      for n = 1 to 4 do
        let exact = Quality.Escape.q0_exact ~total ~faulty:n ~coverage:f in
        close ~eps:(1e-3 *. exact) exact
          (Quality.Escape.q0_second_order ~total ~faulty:n ~coverage:f);
        close ~eps:(0.02 *. exact) exact (Quality.Escape.q0_simple ~faulty:n ~coverage:f)
      done;
      (* Large n: A.2 still tracks exactly; A.3 visibly off but close. *)
      let exact = Quality.Escape.q0_exact ~total ~faulty:32 ~coverage:f in
      let a2 = Quality.Escape.q0_second_order ~total ~faulty:32 ~coverage:f in
      let a3 = Quality.Escape.q0_simple ~faulty:32 ~coverage:f in
      if exact > 1e-12 then begin
        Alcotest.(check bool) "A.2 within 2%" true (abs_float (a2 /. exact -. 1.0) < 0.02);
        (* n = 32 is far outside A.3's validity bound n² << N(1-f)/f, so
           only a coarse factor-of-two agreement can be asked for. *)
        Alcotest.(check bool) "A.3 within 2x" true (a3 /. exact < 2.0 && a3 /. exact > 0.5);
        Alcotest.(check bool) "A.2 beats A.3" true
          (abs_float (a2 -. exact) <= abs_float (a3 -. exact) +. 1e-15)
      end)
    [ 0.1; 0.3; 0.5 ]

let test_q0_boundaries () =
  close ~eps:1e-12 1.0 (Quality.Escape.q0_exact ~total:100 ~faulty:0 ~coverage:0.5);
  close ~eps:1e-12 0.0 (Quality.Escape.q0_exact ~total:100 ~faulty:5 ~coverage:1.0);
  close ~eps:1e-12 1.0 (Quality.Escape.q0_exact ~total:100 ~faulty:5 ~coverage:0.0);
  close ~eps:1e-12 1.0 (Quality.Escape.q0_simple ~faulty:0 ~coverage:0.9)

let test_qk_is_hypergeometric_mode () =
  (* Σ_k qk = 1 and the mean is n·f. *)
  let total = 200 and faulty = 12 and covered = 80 in
  let sum = ref 0.0 and mean = ref 0.0 in
  for k = 0 to faulty do
    let q = Quality.Escape.qk ~total ~faulty ~covered k in
    sum := !sum +. q;
    mean := !mean +. (float_of_int k *. q)
  done;
  close ~eps:1e-9 1.0 !sum;
  close ~eps:1e-9 (12.0 *. 80.0 /. 200.0) !mean

let test_q0_validity_bound () =
  let b = Quality.Escape.q0_validity_bound ~total:1000 ~coverage:0.5 in
  close ~eps:1e-9 (sqrt 1000.0) b;
  Alcotest.(check bool) "infinite at f=0" true
    (Quality.Escape.q0_validity_bound ~total:1000 ~coverage:0.0 = infinity)

(* ------------------------------ reject ------------------------------ *)

let test_eq7_closed_form_values () =
  (* Ybg(f) = (1-f)(1-y)e^{-(n0-1)f}. *)
  close ~eps:1e-12
    (0.5 *. 0.93 *. exp (-3.5))
    (Quality.Reject.ybg ~yield_:0.07 ~n0:8.0 0.5)

let test_eq6_exact_matches_eq7 () =
  List.iter
    (fun (y, n0) ->
      List.iter
        (fun f ->
          let closed = Quality.Reject.ybg ~yield_:y ~n0 f in
          let exact = Quality.Reject.ybg_exact ~total:5000 ~yield_:y ~n0 f in
          Alcotest.(check bool)
            (Printf.sprintf "y=%g n0=%g f=%g" y n0 f)
            true
            (abs_float (closed -. exact) < 0.002))
        [ 0.0; 0.2; 0.5; 0.8; 0.95 ])
    [ (0.07, 8.0); (0.8, 2.0); (0.2, 10.0) ]

let test_eq8_boundaries_and_monotonicity () =
  let y = 0.3 and n0 = 5.0 in
  close ~eps:1e-12 (1.0 -. y) (Quality.Reject.reject_rate ~yield_:y ~n0 0.0);
  close ~eps:1e-12 0.0 (Quality.Reject.reject_rate ~yield_:y ~n0 1.0);
  let prev = ref infinity in
  for i = 0 to 100 do
    let f = float_of_int i /. 100.0 in
    let r = Quality.Reject.reject_rate ~yield_:y ~n0 f in
    Alcotest.(check bool) "decreasing" true (r <= !prev +. 1e-12);
    prev := r
  done

let test_eq9_identity () =
  (* P(f) + y + Ybg(f) = 1: every chip is either rejected, truly good,
     or a bad escape. *)
  List.iter
    (fun f ->
      let y = 0.07 and n0 = 8.0 in
      close ~eps:1e-12 1.0
        (Quality.Reject.p_reject ~yield_:y ~n0 f
        +. y
        +. Quality.Reject.ybg ~yield_:y ~n0 f))
    [ 0.0; 0.1; 0.5; 0.9; 1.0 ]

let test_eq10_slope () =
  let y = 0.07 and n0 = 8.0 in
  close ~eps:1e-12 (0.93 *. 8.0) (Quality.Reject.initial_slope ~yield_:y ~n0);
  (* Numeric derivative of P at 0 agrees. *)
  let h = 1e-7 in
  let numeric = Quality.Reject.p_reject ~yield_:y ~n0 h /. h in
  close ~eps:1e-4 (Quality.Reject.initial_slope ~yield_:y ~n0) numeric;
  (* And the analytic slope function at arbitrary f. *)
  let f0 = 0.3 in
  let numeric =
    (Quality.Reject.p_reject ~yield_:y ~n0 (f0 +. h)
    -. Quality.Reject.p_reject ~yield_:y ~n0 (f0 -. h))
    /. (2.0 *. h)
  in
  close ~eps:1e-4 (Quality.Reject.p_reject_slope ~yield_:y ~n0 f0) numeric

let test_eq11_inverts_eq8 () =
  (* yield_for(reject, n0, f) returns the y making r(f) = reject. *)
  List.iter
    (fun (reject, n0, f) ->
      let y = Quality.Reject.yield_for ~reject ~n0 f in
      close ~eps:1e-10 reject (Quality.Reject.reject_rate ~yield_:y ~n0 f))
    [ (0.01, 8.0, 0.8); (0.001, 2.0, 0.95); (0.005, 10.0, 0.4) ]

let test_reject_band () =
  (* reject_rate is decreasing in f, so the band endpoints swap: the
     pessimistic reject rate comes from the optimistic coverage edge. *)
  let y = 0.07 and n0 = 8.0 in
  let r_lo, r_hi = Quality.Reject.reject_band ~yield_:y ~n0 (0.6, 0.9) in
  close ~eps:1e-12 (Quality.Reject.reject_rate ~yield_:y ~n0 0.9) r_lo;
  close ~eps:1e-12 (Quality.Reject.reject_rate ~yield_:y ~n0 0.6) r_hi;
  Alcotest.(check bool) "band ordered" true (r_lo <= r_hi);
  (* A point band collapses to the point reject rate. *)
  let r_lo, r_hi = Quality.Reject.reject_band ~yield_:y ~n0 (0.5, 0.5) in
  close ~eps:1e-12 r_lo r_hi;
  (* Inverted coverage bands are a caller bug, not a clamp case. *)
  Alcotest.(check bool) "inverted band rejected" true
    (try
       ignore (Quality.Reject.reject_band ~yield_:y ~n0 (0.9, 0.6));
       false
     with Invalid_argument _ -> true)

(* --------------------------- requirement ---------------------------- *)

let test_required_coverage_is_root () =
  List.iter
    (fun (y, n0, reject) ->
      match Quality.Requirement.required_coverage ~yield_:y ~n0 ~reject with
      | Some f when f > 0.0 ->
        close ~eps:1e-7 reject (Quality.Reject.reject_rate ~yield_:y ~n0 f)
      | Some _ ->
        Alcotest.(check bool) "already satisfied" true
          (Quality.Reject.reject_rate ~yield_:y ~n0 0.0 <= reject)
      | None -> Alcotest.fail "positive reject is always reachable")
    [ (0.07, 8.0, 0.001); (0.8, 2.0, 0.005); (0.2, 10.0, 0.01); (0.999, 3.0, 0.01) ]

let test_required_coverage_zero_case () =
  (* Yield 0.999: untested reject rate 0.001 <= 0.01. *)
  Alcotest.(check bool) "no testing needed" true
    (Quality.Requirement.required_coverage ~yield_:0.999 ~n0:5.0 ~reject:0.01
    = Some 0.0)

let test_paper_requirement_checkpoints () =
  List.iter
    (fun cp ->
      match
        Quality.Requirement.required_coverage ~yield_:cp.Experiments.Paper_data.yield_
          ~n0:cp.Experiments.Paper_data.n0 ~reject:cp.Experiments.Paper_data.reject
      with
      | Some f ->
        Alcotest.(check bool)
          (Printf.sprintf "%s y=%g n0=%g" cp.Experiments.Paper_data.figure
             cp.Experiments.Paper_data.yield_ cp.Experiments.Paper_data.n0)
          true
          (abs_float (f -. cp.Experiments.Paper_data.coverage)
           <= cp.Experiments.Paper_data.tolerance)
      | None -> Alcotest.fail "unreachable checkpoint")
    Experiments.Paper_data.requirement_checkpoints

let test_requirement_monotone_in_n0 () =
  (* Higher n0 -> lower requirement (the paper's core message). *)
  let curve =
    Quality.Requirement.sensitivity_to_n0 ~yield_:0.2 ~reject:0.005
      ~n0_values:(Array.init 12 (fun i -> float_of_int (i + 1)))
  in
  Array.iteri
    (fun i (_, f) ->
      if i > 0 then
        Alcotest.(check bool) "decreasing in n0" true (f <= snd curve.(i - 1) +. 1e-9))
    curve

let test_requirement_monotone_in_yield () =
  let curve =
    Quality.Requirement.coverage_versus_yield ~reject:0.005 ~n0:6.0
      ~yields:(Array.init 19 (fun i -> 0.05 *. float_of_int (i + 1)))
  in
  Array.iteri
    (fun i (_, f) ->
      if i > 0 then
        Alcotest.(check bool) "decreasing in yield" true (f <= snd curve.(i - 1) +. 1e-9))
    curve

(* ----------------------------- wadsack ------------------------------ *)

let test_wadsack_paper_numbers () =
  (* Section 7: r=0.01,y=0.07 -> f=99%; r=0.001 -> 99.9%. *)
  List.iter
    (fun (y, reject, expected) ->
      match Quality.Wadsack.required_coverage ~yield_:y ~reject with
      | Some f -> close ~eps:0.001 expected f
      | None -> Alcotest.fail "reachable")
    Experiments.Paper_data.wadsack_checkpoints

let test_wadsack_always_more_pessimistic () =
  (* For n0 > 1 the Wadsack requirement exceeds ours. *)
  List.iter
    (fun (y, n0, reject) ->
      let ours =
        match Quality.Requirement.required_coverage ~yield_:y ~n0 ~reject with
        | Some f -> f
        | None -> 1.0
      in
      let theirs =
        match Quality.Wadsack.required_coverage ~yield_:y ~reject with
        | Some f -> f
        | None -> 1.0
      in
      Alcotest.(check bool) "wadsack >= ours" true (theirs >= ours -. 1e-9))
    [ (0.07, 8.0, 0.01); (0.2, 4.0, 0.005); (0.5, 2.0, 0.001) ]

let test_wadsack_equals_model_at_n0_one () =
  (* With n0 = 1 (one fault per bad chip) the two models differ only by
     the normalization to shipped chips: Wadsack's r is per manufactured
     chip, ours per passing chip, so exactly
     ours = wadsack / (y + wadsack). *)
  let y = 0.5 in
  List.iter
    (fun f ->
      let ours = Quality.Reject.reject_rate ~yield_:y ~n0:1.0 f in
      let theirs = Quality.Wadsack.reject_rate ~yield_:y f in
      close ~eps:1e-12 (theirs /. (y +. theirs)) ours)
    [ 0.3; 0.6; 0.9; 0.95; 0.99 ]

(* ----------------------------- estimate ----------------------------- *)

let synthetic_points ~yield_ ~n0 =
  List.map
    (fun f ->
      { Quality.Estimate.coverage = f;
        fraction_failed = Quality.Reject.p_reject ~yield_ ~n0 f })
    [ 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.5; 0.65 ]

let test_fit_recovers_exact_data () =
  List.iter
    (fun n0 ->
      let points = synthetic_points ~yield_:0.07 ~n0 in
      let n0_hat, residual = Quality.Estimate.fit_n0 ~yield_:0.07 points in
      close ~eps:0.02 n0 n0_hat;
      Alcotest.(check bool) "tiny residual" true (residual < 1e-9))
    [ 2.0; 5.5; 8.0; 12.0 ]

let test_slope_estimator_on_exact_data () =
  (* P is concave, so a secant through (0.05, P(0.05)) under-estimates
     P'(0): the estimate is biased low (the "safe" direction the paper
     notes) but lands within ~20 % of the truth. *)
  let n0 = 8.0 in
  let points = synthetic_points ~yield_:0.07 ~n0 in
  let estimate = Quality.Estimate.slope_n0 ~yield_:0.07 points in
  Alcotest.(check bool) "biased low" true (estimate <= n0);
  Alcotest.(check bool) "within 25%" true (abs_float (estimate -. n0) /. n0 < 0.25)

let test_paper_table1_fit () =
  (* The automated fit must land on the paper's chosen n0 = 8 (+- 1). *)
  let points =
    List.map
      (fun (f, frac) -> { Quality.Estimate.coverage = f; fraction_failed = frac })
      Experiments.Paper_data.table1_points
  in
  let n0_hat, _ = Quality.Estimate.fit_n0 ~yield_:0.07 points in
  Alcotest.(check bool)
    (Printf.sprintf "fit %.2f within 8 +- 1" n0_hat)
    true
    (abs_float (n0_hat -. 8.0) <= 1.0)

let test_paper_table1_slope () =
  (* Paper: P'(0) = 0.41/0.05 = 8.2; n0 = 8.2/0.93 = 8.8. *)
  let points =
    List.map
      (fun (f, frac) -> { Quality.Estimate.coverage = f; fraction_failed = frac })
      Experiments.Paper_data.table1_points
  in
  close ~eps:1e-9 8.2 (Quality.Estimate.slope_nav ~points_used:1 points);
  close ~eps:0.02 8.817 (Quality.Estimate.slope_n0 ~points_used:1 ~yield_:0.07 points)

let test_joint_fit_identifiability () =
  (* With data reaching high coverage the joint fit recovers both
     parameters reasonably. *)
  let points =
    List.map
      (fun f ->
        { Quality.Estimate.coverage = f;
          fraction_failed = Quality.Reject.p_reject ~yield_:0.2 ~n0:6.0 f })
      [ 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.85; 0.95; 1.0 ]
  in
  let n0_hat, y_hat, _ = Quality.Estimate.fit_n0_and_yield points in
  Alcotest.(check bool) "yield recovered" true (abs_float (y_hat -. 0.2) < 0.05);
  Alcotest.(check bool) "n0 recovered" true (abs_float (n0_hat -. 6.0) < 1.5)

let test_joint_fit_saturated_curve () =
  (* Regression: a checkpoint failing at ~100 % used to collapse the
     yield grid onto the single candidate 0.0 (and evaluate
     [fit_n0 ~yield_:0.0]); the clamped grid must return a sane,
     finite estimate instead. *)
  let points =
    List.map
      (fun (f, frac) -> { Quality.Estimate.coverage = f; fraction_failed = frac })
      [ (0.3, 0.8); (0.6, 0.95); (0.9, 0.999); (1.0, 1.0) ]
  in
  let n0_hat, y_hat, residual = Quality.Estimate.fit_n0_and_yield points in
  Alcotest.(check bool) "n0 in search range" true (n0_hat >= 1.0 && n0_hat <= 100.0);
  Alcotest.(check bool) "yield clamped positive" true
    (y_hat >= 1e-4 && y_hat <= 0.01);
  Alcotest.(check bool) "residual finite" true (Float.is_finite residual)

let test_estimate_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Quality.Estimate.fit_n0 ~yield_:0.1 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad coverage rejected" true
    (try
       ignore
         (Quality.Estimate.fit_n0 ~yield_:0.1
            [ { Quality.Estimate.coverage = 1.5; fraction_failed = 0.5 } ]);
       false
     with Invalid_argument _ -> true)

let test_predicted_curve () =
  let curve =
    Quality.Estimate.predicted_curve ~yield_:0.07 ~n0:8.0
      ~coverages:[| 0.0; 0.5; 1.0 |]
  in
  match curve with
  | [ a; b; c ] ->
    close ~eps:1e-12 0.0 a.Quality.Estimate.fraction_failed;
    close ~eps:1e-12
      (Quality.Reject.p_reject ~yield_:0.07 ~n0:8.0 0.5)
      b.Quality.Estimate.fraction_failed;
    close ~eps:1e-12 0.93 c.Quality.Estimate.fraction_failed
  | _ -> Alcotest.fail "3 points"

(* -------------------------- williams-brown --------------------------- *)

let test_wb_formula_values () =
  (* The canonical textbook example: y = 0.5, f = 0.9 -> DL = 1 - 0.5^0.1. *)
  close ~eps:1e-12 (1.0 -. (0.5 ** 0.1))
    (Quality.Williams_brown.defect_level ~yield_:0.5 0.9)

let test_wb_boundaries () =
  close ~eps:1e-12 0.3 (Quality.Williams_brown.defect_level ~yield_:0.7 0.0);
  close ~eps:1e-12 0.0 (Quality.Williams_brown.defect_level ~yield_:0.7 1.0);
  close ~eps:1e-12 0.0 (Quality.Williams_brown.defect_level ~yield_:1.0 0.5);
  (* y = 0: the y -> 0 limit of 1 - ln(1 - DL) / ln y. *)
  Alcotest.(check (option (float 0.0))) "zero yield needs full coverage"
    (Some 1.0)
    (Quality.Williams_brown.required_coverage ~yield_:0.0 ~defect_level:0.001)

let test_wb_required_coverage_inverts () =
  List.iter
    (fun (y, dl) ->
      match Quality.Williams_brown.required_coverage ~yield_:y ~defect_level:dl with
      | Some f when f > 0.0 ->
        close ~eps:1e-10 dl (Quality.Williams_brown.defect_level ~yield_:y f)
      | Some _ -> Alcotest.(check bool) "already met" true (1.0 -. y <= dl)
      | None -> Alcotest.fail "reachable")
    [ (0.07, 0.01); (0.5, 0.001); (0.9, 0.05); (0.995, 0.01) ]

let test_wb_between_wadsack_and_agrawal () =
  (* At the paper's example point both prior models demand near-perfect
     coverage, far above the Agrawal requirement; WB and Wadsack agree
     with each other to a fraction of a percent. *)
  let y = 0.07 and reject = 0.001 in
  let agrawal =
    match Quality.Requirement.required_coverage ~yield_:y ~n0:8.0 ~reject with
    | Some f -> f
    | None -> assert false
  in
  let wb =
    match Quality.Williams_brown.required_coverage ~yield_:y ~defect_level:reject with
    | Some f -> f
    | None -> assert false
  in
  let wadsack =
    match Quality.Wadsack.required_coverage ~yield_:y ~reject with
    | Some f -> f
    | None -> assert false
  in
  Alcotest.(check bool)
    (Printf.sprintf "agrawal %.4f far below wb %.4f ~ wadsack %.4f" agrawal wb wadsack)
    true
    (agrawal < wb -. 0.03 && agrawal < wadsack -. 0.03
    && abs_float (wb -. wadsack) < 0.005)

let test_wb_reconciles_with_agrawal_via_implied_n0 () =
  (* Feeding WB's implied defective-chip fault mean into the Agrawal
     model reproduces WB's defect level to within ~15 % relative over
     the midrange of f: the models share the same physics and differ
     only in the (1-f) escape prefactor and the shifted support. *)
  let y = 0.07 in
  let n0 = Quality.Williams_brown.implied_n0 ~yield_:y in
  Alcotest.(check bool) "implied n0 plausible" true (n0 > 2.0 && n0 < 3.5);
  List.iter
    (fun f ->
      let wb = Quality.Williams_brown.defect_level ~yield_:y f in
      let agrawal = Quality.Reject.reject_rate ~yield_:y ~n0 f in
      Alcotest.(check bool)
        (Printf.sprintf "f=%.2f wb=%.4f agrawal=%.4f" f wb agrawal)
        true
        (abs_float (agrawal /. wb -. 1.0) < 0.20))
    [ 0.3; 0.5; 0.7; 0.9 ]

let test_wb_monotone_decreasing () =
  let prev = ref 1.0 in
  for i = 0 to 100 do
    let f = float_of_int i /. 100.0 in
    let dl = Quality.Williams_brown.defect_level ~yield_:0.3 f in
    Alcotest.(check bool) "decreasing" true (dl <= !prev +. 1e-12);
    prev := dl
  done

(* ---------------------------- NaN inputs ---------------------------- *)

(* NaN fails every range check, so each model raises instead of
   answering NaN or a confident wrong number. *)
let test_nan_parameters_rejected () =
  let open Quality in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " = nan raises") true
        (try
           f ();
           false
         with Invalid_argument _ -> true))
    [ ("Reject.reject_rate yield", fun () ->
          ignore (Reject.reject_rate ~yield_:nan ~n0:8.0 0.5));
      ("Reject.reject_rate n0", fun () ->
          ignore (Reject.reject_rate ~yield_:0.07 ~n0:nan 0.5));
      ("Reject.reject_rate f", fun () ->
          ignore (Reject.reject_rate ~yield_:0.07 ~n0:8.0 nan));
      ("Reject.p_reject yield", fun () ->
          ignore (Reject.p_reject ~yield_:nan ~n0:8.0 0.5));
      ("Reject.p_reject n0", fun () ->
          ignore (Reject.p_reject ~yield_:0.07 ~n0:nan 0.5));
      ("Reject.p_reject f", fun () ->
          ignore (Reject.p_reject ~yield_:0.07 ~n0:8.0 nan));
      ("Reject.yield_for reject", fun () ->
          ignore (Reject.yield_for ~reject:nan ~n0:8.0 0.5));
      ("Reject.yield_for n0", fun () ->
          ignore (Reject.yield_for ~reject:0.001 ~n0:nan 0.5));
      ("Reject.yield_for f", fun () ->
          ignore (Reject.yield_for ~reject:0.001 ~n0:8.0 nan));
      ("Requirement.required_coverage yield", fun () ->
          ignore (Requirement.required_coverage ~yield_:nan ~n0:8.0 ~reject:0.001));
      ("Requirement.required_coverage n0", fun () ->
          ignore (Requirement.required_coverage ~yield_:0.07 ~n0:nan ~reject:0.001));
      ("Requirement.required_coverage reject", fun () ->
          ignore (Requirement.required_coverage ~yield_:0.07 ~n0:8.0 ~reject:nan));
      ("Wadsack.reject_rate yield", fun () ->
          ignore (Wadsack.reject_rate ~yield_:nan 0.5));
      ("Wadsack.reject_rate f", fun () ->
          ignore (Wadsack.reject_rate ~yield_:0.07 nan));
      ("Wadsack.required_coverage yield", fun () ->
          ignore (Wadsack.required_coverage ~yield_:nan ~reject:0.001));
      ("Wadsack.required_coverage reject", fun () ->
          ignore (Wadsack.required_coverage ~yield_:0.07 ~reject:nan));
      ("Williams_brown.defect_level yield", fun () ->
          ignore (Williams_brown.defect_level ~yield_:nan 0.5));
      ("Williams_brown.defect_level f", fun () ->
          ignore (Williams_brown.defect_level ~yield_:0.07 nan));
      ("Williams_brown.required_coverage yield", fun () ->
          ignore (Williams_brown.required_coverage ~yield_:nan ~defect_level:0.001));
      ("Williams_brown.required_coverage defect_level", fun () ->
          ignore (Williams_brown.required_coverage ~yield_:0.07 ~defect_level:nan));
      ("Escape.q0_simple coverage", fun () ->
          ignore (Escape.q0_simple ~faulty:8 ~coverage:nan)) ]

(* ------------------------------ griffin ----------------------------- *)

let test_griffin_normalizes () =
  let g = Quality.Griffin.create ~yield_:0.07 ~shape:2.0 ~scale:3.5 in
  let sum = ref 0.0 in
  for n = 0 to 4000 do
    sum := !sum +. Quality.Griffin.p g n
  done;
  close ~eps:1e-6 1.0 !sum

let test_griffin_mean () =
  let g = Quality.Griffin.of_mean_dispersion ~yield_:0.07 ~n0:8.0 ~dispersion:2.0 in
  close ~eps:1e-12 8.0 (Quality.Griffin.mean_n0 g);
  (* Conditional mean from the pmf agrees. *)
  let sum = ref 0.0 and mass = ref 0.0 in
  for n = 1 to 4000 do
    let p = Quality.Griffin.p g n in
    sum := !sum +. (float_of_int n *. p);
    mass := !mass +. p
  done;
  close ~eps:1e-6 8.0 (!sum /. !mass)

let test_griffin_degenerates_to_base () =
  (* dispersion -> 1 recovers the fixed-n0 model. *)
  let g = Quality.Griffin.of_mean_dispersion ~yield_:0.07 ~n0:8.0 ~dispersion:1.0001 in
  List.iter
    (fun f ->
      close ~eps:1e-3
        (Quality.Reject.reject_rate ~yield_:0.07 ~n0:8.0 f)
        (Quality.Griffin.reject_rate g f))
    [ 0.1; 0.5; 0.9 ]

let test_griffin_dispersion_needs_more_coverage () =
  (* Heavier mixing -> heavier single-fault tail -> more coverage needed. *)
  let base =
    match Quality.Requirement.required_coverage ~yield_:0.07 ~n0:8.0 ~reject:0.001 with
    | Some f -> f
    | None -> assert false
  in
  List.iter
    (fun dispersion ->
      let g = Quality.Griffin.of_mean_dispersion ~yield_:0.07 ~n0:8.0 ~dispersion in
      match Quality.Griffin.required_coverage g ~reject:0.001 with
      | Some f -> Alcotest.(check bool) "mixed needs more" true (f >= base -. 1e-9)
      | None -> Alcotest.fail "reachable")
    [ 1.5; 2.0; 3.0 ]

let test_griffin_identity () =
  (* P + y + Ybg = 1 holds in the mixed model too. *)
  let g = Quality.Griffin.of_mean_dispersion ~yield_:0.2 ~n0:5.0 ~dispersion:2.5 in
  List.iter
    (fun f ->
      close ~eps:1e-12 1.0 (Quality.Griffin.p_reject g f +. 0.2 +. Quality.Griffin.ybg g f))
    [ 0.0; 0.3; 0.7; 1.0 ]

(* ----------------------------- economics ---------------------------- *)

let economics_model ~escape_cost =
  Quality.Economics.create ~yield_:0.07 ~n0:8.0 ~pattern_cost:1.0
    ~patterns_per_decade:50.0 ~escape_cost

let test_economics_costs () =
  let m = economics_model ~escape_cost:1000.0 in
  close ~eps:1e-9 0.0 (Quality.Economics.test_cost m 0.0);
  Alcotest.(check bool) "test cost increasing" true
    (Quality.Economics.test_cost m 0.9 > Quality.Economics.test_cost m 0.5);
  Alcotest.(check bool) "escape cost decreasing" true
    (Quality.Economics.escape_cost_per_chip m 0.9
     < Quality.Economics.escape_cost_per_chip m 0.5)

let test_economics_optimum_is_interior_minimum () =
  let m = economics_model ~escape_cost:5000.0 in
  let f_star = Quality.Economics.optimal_coverage m in
  Alcotest.(check bool) "interior" true (f_star > 0.0 && f_star < 1.0);
  let best = Quality.Economics.total_cost m f_star in
  List.iter
    (fun df ->
      let f = min 0.999 (max 0.0 (f_star +. df)) in
      Alcotest.(check bool) "local minimum" true
        (Quality.Economics.total_cost m f >= best -. 1e-9))
    [ -0.05; -0.01; 0.01; 0.05 ]

let test_economics_optimum_monotone_in_escape_cost () =
  let prev = ref 0.0 in
  List.iter
    (fun escape_cost ->
      let f = Quality.Economics.optimal_coverage (economics_model ~escape_cost) in
      Alcotest.(check bool) "more escape cost, more coverage" true (f >= !prev);
      prev := f)
    [ 10.0; 100.0; 1000.0; 10000.0 ]

let test_economics_sweep_shape () =
  let m = economics_model ~escape_cost:1000.0 in
  let rows = Quality.Economics.sweep m ~coverages:[| 0.1; 0.5; 0.9 |] in
  Array.iter
    (fun (f, test, escape, total) ->
      ignore f;
      close ~eps:1e-9 total (test +. escape))
    rows

let test_economics_study_rows () =
  let rows = Experiments.Economics_study.sweep ~ratios:[ 1.0; 100.0 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  match rows with
  | [ low; high ] ->
    Alcotest.(check bool) "higher ratio, higher optimum" true
      (high.Experiments.Economics_study.optimal_coverage
       > low.Experiments.Economics_study.optimal_coverage)
  | _ -> assert false

(* ------------------------- bootstrap estimate ------------------------ *)

let test_bootstrap_n0_interval_covers_truth () =
  (* Chips drawn from the exact Eq. 1 law; the bootstrap percentile
     interval for the mean-of-defective statistic should cover n0. *)
  let rng = Stats.Rng.create ~seed:2025 () in
  let d = Quality.Fault_distribution.create ~yield_:0.07 ~n0:8.0 in
  let chips = Array.init 300 (fun _ -> Quality.Fault_distribution.sample d rng) in
  let statistic sample =
    let defective = Array.to_list sample |> List.filter (fun n -> n > 0) in
    if defective = [] then invalid_arg "empty resample"
    else
      float_of_int (List.fold_left ( + ) 0 defective)
      /. float_of_int (List.length defective)
  in
  let distribution = Stats.Fit.bootstrap ~resamples:400 rng ~statistic chips in
  Alcotest.(check bool) "enough resamples survived" true
    (Array.length distribution > 350);
  let lo, hi = Stats.Fit.percentile_interval distribution ~level:0.95 in
  Alcotest.(check bool)
    (Printf.sprintf "interval [%.2f, %.2f] covers 8" lo hi)
    true
    (lo < 8.0 && 8.0 < hi && hi -. lo < 1.5)

(* ---------------------- Monte Carlo validation ---------------------- *)

(* Simulate the urn model directly: a chip with n faults escapes tests
   of coverage f iff every fault's detection threshold exceeds f.  The
   empirical bad-chips-passing rate must match Eq. 7 and the empirical
   shipped-reject rate Eq. 8, within Monte Carlo error. *)
let monte_carlo_escapes ~yield_ ~n0 ~coverage ~chips rng =
  let d = Quality.Fault_distribution.create ~yield_ ~n0 in
  let good = ref 0 and escapes = ref 0 in
  for _ = 1 to chips do
    let n = Quality.Fault_distribution.sample d rng in
    if n = 0 then incr good
    else begin
      let undetected = ref true in
      for _ = 1 to n do
        if Stats.Rng.uniform rng <= coverage then undetected := false
      done;
      if !undetected then incr escapes
    end
  done;
  (!good, !escapes)

let test_eq7_eq8_match_monte_carlo () =
  let rng = Stats.Rng.create ~seed:777 () in
  List.iter
    (fun (yield_, n0, coverage) ->
      let chips = 200_000 in
      let good, escapes = monte_carlo_escapes ~yield_ ~n0 ~coverage ~chips rng in
      let empirical_ybg = float_of_int escapes /. float_of_int chips in
      let predicted_ybg = Quality.Reject.ybg ~yield_ ~n0 coverage in
      (* 4-sigma binomial tolerance. *)
      let sigma = sqrt (predicted_ybg *. (1.0 -. predicted_ybg) /. float_of_int chips) in
      Alcotest.(check bool)
        (Printf.sprintf "Ybg y=%g n0=%g f=%g: %.5f vs %.5f" yield_ n0 coverage
           empirical_ybg predicted_ybg)
        true
        (abs_float (empirical_ybg -. predicted_ybg) < (4.0 *. sigma) +. 1e-4);
      let empirical_reject =
        float_of_int escapes /. float_of_int (good + escapes)
      in
      let predicted_reject = Quality.Reject.reject_rate ~yield_ ~n0 coverage in
      Alcotest.(check bool)
        (Printf.sprintf "r y=%g n0=%g f=%g: %.5f vs %.5f" yield_ n0 coverage
           empirical_reject predicted_reject)
        true
        (abs_float (empirical_reject -. predicted_reject)
         < (0.2 *. predicted_reject) +. 5e-4))
    [ (0.07, 8.0, 0.5); (0.07, 8.0, 0.8); (0.8, 2.0, 0.6); (0.2, 10.0, 0.4) ]

let test_p_reject_matches_monte_carlo () =
  (* Eq. 9 is the complementary count: fraction of all chips failing. *)
  let rng = Stats.Rng.create ~seed:778 () in
  let yield_ = 0.07 and n0 = 8.0 and coverage = 0.3 in
  let chips = 200_000 in
  let good, escapes = monte_carlo_escapes ~yield_ ~n0 ~coverage ~chips rng in
  let empirical_p =
    1.0 -. (float_of_int (good + escapes) /. float_of_int chips)
  in
  Alcotest.(check bool) "P(f) matches" true
    (abs_float (empirical_p -. Quality.Reject.p_reject ~yield_ ~n0 coverage) < 0.005)

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:300 ~name:"r(f) in [0, 1-y] and decreasing"
      (triple (float_range 0.01 0.99) (float_range 1.0 20.0) (float_range 0.0 0.99))
      (fun (y, n0, f) ->
        let r = Quality.Reject.reject_rate ~yield_:y ~n0 f in
        let r' = Quality.Reject.reject_rate ~yield_:y ~n0 (f +. 0.01) in
        r >= -1e-12 && r <= 1.0 -. y +. 1e-12 && r' <= r +. 1e-12);
    Test.make ~count:200 ~name:"required coverage solves to target"
      (triple (float_range 0.01 0.95) (float_range 1.0 15.0) (float_range 0.0005 0.05))
      (fun (y, n0, reject) ->
        match Quality.Requirement.required_coverage ~yield_:y ~n0 ~reject with
        | Some f when f > 0.0 ->
          abs_float (Quality.Reject.reject_rate ~yield_:y ~n0 f -. reject) < 1e-6
        | Some _ -> Quality.Reject.reject_rate ~yield_:y ~n0 0.0 <= reject +. 1e-12
        | None -> false);
    Test.make ~count:200 ~name:"q0 forms agree within A.3's validity bound"
      (pair (int_range 1 8) (float_range 0.05 0.7))
      (fun (n, f) ->
        let exact = Quality.Escape.q0_exact ~total:10_000 ~faulty:n ~coverage:f in
        let simple = Quality.Escape.q0_simple ~faulty:n ~coverage:f in
        exact <= 0.0 || abs_float (simple /. exact -. 1.0) < 0.01);
    Test.make ~count:100 ~name:"fit recovers n0 from exact curves"
      (pair (float_range 1.5 15.0) (float_range 0.02 0.6))
      (fun (n0, y) ->
        let points =
          List.map
            (fun f ->
              { Quality.Estimate.coverage = f;
                fraction_failed = Quality.Reject.p_reject ~yield_:y ~n0 f })
            [ 0.1; 0.2; 0.35; 0.5; 0.7 ]
        in
        let n0_hat, _ = Quality.Estimate.fit_n0 ~yield_:y points in
        abs_float (n0_hat -. n0) < 0.1) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "quality.fault_distribution",
      [ tc "Eq.1 normalizes" test_eq1_normalizes;
        tc "p(0) = yield" test_eq1_p0_is_yield;
        tc "Eq.2 average" test_eq2_average;
        tc "sampling" test_eq1_sampling;
        tc "validation" test_fault_distribution_validation ] );
    ( "quality.escape",
      [ tc "A.1 = product form" test_q0_exact_equals_product_form;
        tc "approximation quality (Fig.6 claims)" test_q0_approximation_quality;
        tc "boundaries" test_q0_boundaries;
        tc "qk normalizes, mean nf" test_qk_is_hypergeometric_mode;
        tc "validity bound" test_q0_validity_bound ] );
    ( "quality.reject",
      [ tc "Eq.7 value" test_eq7_closed_form_values;
        tc "Eq.6 exact = Eq.7 closed" test_eq6_exact_matches_eq7;
        tc "Eq.8 boundaries + monotone" test_eq8_boundaries_and_monotonicity;
        tc "Eq.9 identity" test_eq9_identity;
        tc "Eq.10 slope" test_eq10_slope;
        tc "Eq.11 inverts Eq.8" test_eq11_inverts_eq8;
        tc "reject band from coverage band" test_reject_band;
        tc "NaN parameters rejected by every model" test_nan_parameters_rejected ] );
    ( "quality.requirement",
      [ tc "solution is a root" test_required_coverage_is_root;
        tc "zero-coverage case" test_required_coverage_zero_case;
        tc "paper checkpoints (Figs. 1, 2, 4)" test_paper_requirement_checkpoints;
        tc "monotone in n0" test_requirement_monotone_in_n0;
        tc "monotone in yield" test_requirement_monotone_in_yield ] );
    ( "quality.wadsack",
      [ tc "paper Section 7 numbers" test_wadsack_paper_numbers;
        tc "always more pessimistic" test_wadsack_always_more_pessimistic;
        tc "agreement at n0 = 1, high f" test_wadsack_equals_model_at_n0_one ] );
    ( "quality.estimate",
      [ tc "fit recovers exact data" test_fit_recovers_exact_data;
        tc "slope estimator near truth" test_slope_estimator_on_exact_data;
        tc "paper Table 1 fit ~ 8" test_paper_table1_fit;
        tc "paper slope 8.2 / 8.8" test_paper_table1_slope;
        tc "joint fit identifiability" test_joint_fit_identifiability;
        tc "joint fit saturated curve" test_joint_fit_saturated_curve;
        tc "validation" test_estimate_validation;
        tc "predicted curve" test_predicted_curve ] );
    ( "quality.economics",
      [ tc "cost components" test_economics_costs;
        tc "optimum is interior minimum" test_economics_optimum_is_interior_minimum;
        tc "optimum monotone in escape cost" test_economics_optimum_monotone_in_escape_cost;
        tc "sweep rows consistent" test_economics_sweep_shape;
        tc "study rows" test_economics_study_rows;
        tc "bootstrap n0 interval" test_bootstrap_n0_interval_covers_truth ] );
    ( "quality.williams_brown",
      [ tc "formula values" test_wb_formula_values;
        tc "boundaries" test_wb_boundaries;
        tc "required coverage inverts" test_wb_required_coverage_inverts;
        tc "sits between Wadsack and Agrawal" test_wb_between_wadsack_and_agrawal;
        tc "reconciles via implied n0" test_wb_reconciles_with_agrawal_via_implied_n0;
        tc "monotone" test_wb_monotone_decreasing ] );
    ( "quality.griffin",
      [ tc "pmf normalizes" test_griffin_normalizes;
        tc "mean n0" test_griffin_mean;
        tc "degenerates to base model" test_griffin_degenerates_to_base;
        tc "dispersion raises requirement" test_griffin_dispersion_needs_more_coverage;
        tc "accounting identity" test_griffin_identity ] );
    ( "quality.monte_carlo",
      [ tc "Eq.7/Eq.8 vs 200k-chip simulation" test_eq7_eq8_match_monte_carlo;
        tc "Eq.9 vs simulation" test_p_reject_matches_monte_carlo ] );
    ( "quality.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
