type estimate = {
  coverage : float;
  std_error : float;
  lower_95 : float;
  upper_95 : float;
  sample_size : int;
  universe_size : int;
}

let z_95 = 1.959963984540054

(* Wilson score interval at effective sample size [n_eff].  Unlike the
   Wald interval (p +/- z*se), the score interval stays non-degenerate
   at the endpoints: a sample coverage of exactly 0 or 1 still gets a
   positive-width interval (at p = 1 the lower bound is
   n/(n + z^2) < 1), because the uncertainty is evaluated under the
   hypothesised p rather than the observed one. *)
let wilson_95 ~p ~n_eff =
  let z2 = z_95 *. z_95 in
  let denom = 1.0 +. (z2 /. n_eff) in
  let center = (p +. (z2 /. (2.0 *. n_eff))) /. denom in
  let half =
    z_95 /. denom
    *. sqrt ((p *. (1.0 -. p) /. n_eff) +. (z2 /. (4.0 *. n_eff *. n_eff)))
  in
  (max 0.0 (center -. half), min 1.0 (center +. half))

let estimate_coverage ?(collapse_dominance = false) ?(n_detect = 1) rng c
    universe ~sample_size patterns =
  let universe =
    if collapse_dominance then Faults.Universe.collapse_dominance c universe
    else universe
  in
  let universe_size = Array.length universe in
  if universe_size = 0 then invalid_arg "Sampling.estimate_coverage: empty universe";
  if sample_size <= 0 then invalid_arg "Sampling.estimate_coverage: nonpositive sample";
  let sample_size = min sample_size universe_size in
  let sample =
    if sample_size = universe_size then universe
    else
      Stats.Rng.sample_without_replacement rng ~k:sample_size ~n:universe_size
      |> Array.map (fun i -> universe.(i))
  in
  let detected =
    Coverage.detected_count (snd (Coverage.grade ~n:n_detect c sample patterns))
  in
  let k = float_of_int sample_size in
  let coverage = float_of_int detected /. k in
  let fpc =
    if universe_size <= 1 then 0.0
    else
      float_of_int (universe_size - sample_size)
      /. float_of_int (universe_size - 1)
  in
  let std_error = sqrt (coverage *. (1.0 -. coverage) /. k *. fpc) in
  (* The finite-population correction shrinks the variance by fpc;
     folding it into the Wilson interval as an effective sample size
     n_eff = k / fpc keeps the score shape while matching the corrected
     variance.  A full sample (fpc = 0, n_eff infinite) is exact: the
     interval collapses to the point estimate. *)
  let lower_95, upper_95 =
    if fpc = 0.0 then (coverage, coverage)
    else wilson_95 ~p:coverage ~n_eff:(k /. fpc)
  in
  { coverage; std_error; lower_95; upper_95; sample_size; universe_size }
