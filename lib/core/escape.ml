let check_coverage f =
  if not (0.0 <= f && f <= 1.0) then invalid_arg "Escape: coverage outside [0,1]"

let qk ~total ~faulty ~covered k =
  let dist =
    Stats.Dist.Hypergeometric.create ~total ~marked:faulty ~draws:covered
  in
  Stats.Dist.Hypergeometric.pmf dist k

let q0_exact ~total ~faulty ~coverage =
  check_coverage coverage;
  if faulty = 0 then 1.0
  else begin
    let m = int_of_float (Float.round (coverage *. float_of_int total)) in
    if faulty > total - m then 0.0
    else
      exp
        (Stats.Special.log_choose (total - m) faulty
        -. Stats.Special.log_choose total faulty)
  end

let q0_second_order ~total ~faulty ~coverage =
  check_coverage coverage;
  if faulty = 0 then 1.0
  else if coverage = 1.0 then 0.0
  else begin
    let n = float_of_int faulty and big_n = float_of_int total in
    let f = coverage in
    ((1.0 -. f) ** n)
    *. exp (-.f *. n *. (n -. 1.0) /. (2.0 *. big_n *. (1.0 -. f)))
  end

let q0_simple ~faulty ~coverage =
  check_coverage coverage;
  (1.0 -. coverage) ** float_of_int faulty

let q0_validity_bound ~total ~coverage =
  check_coverage coverage;
  if coverage = 0.0 then infinity
  else sqrt (float_of_int total *. (1.0 -. coverage) /. coverage)
