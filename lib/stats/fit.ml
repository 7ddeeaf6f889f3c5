type linear_fit = { slope : float; intercept : float; r_squared : float }

let linear_regression points =
  let n = List.length points in
  if n < 2 then invalid_arg "Fit.linear_regression: need at least two points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let mean_x = sx /. fn and mean_y = sy /. fn in
  let sxx, sxy, syy =
    List.fold_left
      (fun (sxx, sxy, syy) (x, y) ->
        let dx = x -. mean_x and dy = y -. mean_y in
        (sxx +. (dx *. dx), sxy +. (dx *. dy), syy +. (dy *. dy)))
      (0.0, 0.0, 0.0) points
  in
  if sxx = 0.0 then invalid_arg "Fit.linear_regression: degenerate abscissae";
  let slope = sxy /. sxx in
  let intercept = mean_y -. (slope *. mean_x) in
  let r_squared = if syy = 0.0 then 1.0 else sxy *. sxy /. (sxx *. syy) in
  { slope; intercept; r_squared }

let linear_regression_through_origin points =
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  if sxx = 0.0 then
    invalid_arg "Fit.linear_regression_through_origin: degenerate abscissae";
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  sxy /. sxx

let sum_squared_error ~model points =
  List.fold_left
    (fun acc (x, y) ->
      let e = model x -. y in
      acc +. (e *. e))
    0.0 points

let fit_scalar ?(grid = 64) ~loss ~lo ~hi () =
  if grid < 2 then invalid_arg "Fit.fit_scalar: grid too small";
  if not (lo < hi) then invalid_arg "Fit.fit_scalar: empty interval";
  let step = (hi -. lo) /. float_of_int (grid - 1) in
  let best_index = ref 0 and best_loss = ref infinity in
  for i = 0 to grid - 1 do
    let candidate = lo +. (float_of_int i *. step) in
    let value = loss candidate in
    if value < !best_loss then begin
      best_loss := value;
      best_index := i
    end
  done;
  let bracket_lo = lo +. (float_of_int (max 0 (!best_index - 1)) *. step) in
  let bracket_hi = lo +. (float_of_int (min (grid - 1) (!best_index + 1)) *. step) in
  let argmin =
    Solver.golden_section_min ~f:loss ~lo:bracket_lo ~hi:bracket_hi ()
  in
  let refined = loss argmin in
  if refined <= !best_loss then (argmin, refined)
  else (lo +. (float_of_int !best_index *. step), !best_loss)

let bootstrap ~resamples rng ~statistic samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Fit.bootstrap: empty sample";
  if resamples <= 0 then invalid_arg "Fit.bootstrap: nonpositive resamples";
  let values = ref [] in
  for _ = 1 to resamples do
    let resample = Array.init n (fun _ -> samples.(Rng.int rng n)) in
    match statistic resample with
    | v -> values := v :: !values
    | exception (Invalid_argument _ | Failure _) -> ()
  done;
  Array.of_list (List.rev !values)

let percentile_interval distribution ~level =
  if not (0.0 < level && level < 1.0) then
    invalid_arg "Fit.percentile_interval: level outside (0,1)";
  let tail = (1.0 -. level) /. 2.0 in
  (Summary.quantile distribution tail, Summary.quantile distribution (1.0 -. tail))
