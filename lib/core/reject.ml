let check ~yield_ ~n0 f =
  if not (0.0 <= yield_ && yield_ <= 1.0) then invalid_arg "Reject: yield outside [0,1]";
  if not (1.0 <= n0) then invalid_arg "Reject: n0 must be >= 1";
  if not (0.0 <= f && f <= 1.0) then invalid_arg "Reject: coverage outside [0,1]"

let ybg ~yield_ ~n0 f =
  check ~yield_ ~n0 f;
  (1.0 -. f) *. (1.0 -. yield_) *. exp (-.(n0 -. 1.0) *. f)

let ybg_exact ?(terms = 400) ~total ~yield_ ~n0 f =
  check ~yield_ ~n0 f;
  let conditional = Stats.Dist.Shifted_poisson.create n0 in
  let acc = ref 0.0 in
  for n = 1 to terms do
    let pn = (1.0 -. yield_) *. Stats.Dist.Shifted_poisson.pmf conditional n in
    if pn > 0.0 && n <= total then
      acc := !acc +. (pn *. Escape.q0_exact ~total ~faulty:n ~coverage:f)
  done;
  !acc

let reject_rate ~yield_ ~n0 f =
  let bad_passing = ybg ~yield_ ~n0 f in
  if yield_ +. bad_passing = 0.0 then 0.0
  else bad_passing /. (yield_ +. bad_passing)

let reject_band ~yield_ ~n0 (f_lo, f_hi) =
  if f_lo > f_hi then invalid_arg "Reject.reject_band: inverted coverage band";
  (* r(f) is strictly decreasing in f, so the coverage band's upper
     edge gives the reject band's lower edge and vice versa. *)
  (reject_rate ~yield_ ~n0 f_hi, reject_rate ~yield_ ~n0 f_lo)

let p_reject ~yield_ ~n0 f =
  check ~yield_ ~n0 f;
  (1.0 -. yield_) *. (1.0 -. ((1.0 -. f) *. exp (-.(n0 -. 1.0) *. f)))

let p_reject_slope ~yield_ ~n0 f =
  check ~yield_ ~n0 f;
  (1.0 -. yield_)
  *. (1.0 +. ((1.0 -. f) *. (n0 -. 1.0)))
  *. exp (-.(n0 -. 1.0) *. f)

let initial_slope ~yield_ ~n0 = (1.0 -. yield_) *. n0

let yield_for ~reject ~n0 f =
  if not (0.0 < reject && reject < 1.0) then
    invalid_arg "Reject.yield_for: reject rate outside (0,1)";
  if not (1.0 <= n0) then invalid_arg "Reject.yield_for: n0 must be >= 1";
  if not (0.0 <= f && f <= 1.0) then
    invalid_arg "Reject.yield_for: coverage outside [0,1]";
  let escaped = (1.0 -. f) *. exp (-.(n0 -. 1.0) *. f) in
  let numerator = (1.0 -. reject) *. escaped in
  numerator /. (reject +. numerator)
