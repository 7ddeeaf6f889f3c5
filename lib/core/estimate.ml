type point = { coverage : float; fraction_failed : float }

let validate points =
  if points = [] then invalid_arg "Estimate: empty data";
  List.iter
    (fun { coverage; fraction_failed } ->
      if not (0.0 <= coverage && coverage <= 1.0) then
        invalid_arg "Estimate: coverage outside [0,1]";
      if not (0.0 <= fraction_failed && fraction_failed <= 1.0) then
        invalid_arg "Estimate: fraction outside [0,1]")
    points

let sse ~yield_ ~n0 points =
  List.fold_left
    (fun acc { coverage; fraction_failed } ->
      let e = Reject.p_reject ~yield_ ~n0 coverage -. fraction_failed in
      acc +. (e *. e))
    0.0 points

let fit_n0 ?(n0_max = 100.0) ~yield_ points =
  validate points;
  if not (List.exists (fun p -> p.coverage > 0.0) points) then
    invalid_arg "Estimate.fit_n0: need a point with positive coverage";
  let loss n0 = sse ~yield_ ~n0 points in
  Stats.Fit.fit_scalar ~grid:256 ~loss ~lo:1.0 ~hi:n0_max ()

let slope_points points_used points =
  let early =
    List.filteri (fun i _ -> i < points_used) points
    |> List.map (fun p -> (p.coverage, p.fraction_failed))
  in
  if List.for_all (fun (f, _) -> f = 0.0) early then
    invalid_arg "Estimate.slope: zero-coverage checkpoints only";
  Stats.Fit.linear_regression_through_origin early

let slope_nav ?(points_used = 1) points =
  validate points;
  slope_points points_used points

let slope_n0 ?(points_used = 1) ~yield_ points =
  if not (yield_ < 1.0) then invalid_arg "Estimate.slope_n0: yield must be < 1";
  slope_nav ~points_used points /. (1.0 -. yield_)

let fit_n0_and_yield ?(n0_max = 100.0) points =
  validate points;
  (* Nested search: for each candidate yield, the best n0 is a 1-d fit;
     the outer loss is unimodal enough for a fine grid + refinement. *)
  let max_failed =
    List.fold_left (fun acc p -> max acc p.fraction_failed) 0.0 points
  in
  (* A fraction_failed of m bounds the yield by 1 - m, but a saturated
     curve (m near 1) must not collapse the grid onto yield = 0.0: keep
     the search inside a sane [y_lo, y_hi]. *)
  let y_lo = 1e-4 in
  let y_hi = max y_lo (min (1.0 -. max_failed) 0.999) in
  let best = ref (1.0, 0.5, infinity) in
  let steps = if y_hi -. y_lo < 1e-9 then 0 else 64 in
  for i = 0 to steps do
    let y =
      y_lo +. (float_of_int i /. float_of_int (max 1 steps) *. (y_hi -. y_lo))
    in
    let n0, residual = fit_n0 ~n0_max ~yield_:y points in
    let _, _, best_residual = !best in
    if residual < best_residual then best := (n0, y, residual)
  done;
  !best

let predicted_curve ~yield_ ~n0 ~coverages =
  Array.to_list coverages
  |> List.map (fun f ->
         { coverage = f; fraction_failed = Reject.p_reject ~yield_ ~n0 f })
