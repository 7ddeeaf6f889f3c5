type t = { yield_ : float; shape : float; scale : float }

let create ~yield_ ~shape ~scale =
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Griffin.create: yield outside [0,1]";
  if not (0.0 < shape && 0.0 < scale) then
    invalid_arg "Griffin.create: shape and scale must be positive";
  { yield_; shape; scale }

let of_mean_dispersion ~yield_ ~n0 ~dispersion =
  if not (1.0 < n0) then invalid_arg "Griffin.of_mean_dispersion: n0 must exceed 1";
  if not (1.0 < dispersion) then
    invalid_arg "Griffin.of_mean_dispersion: dispersion must exceed 1";
  let scale = dispersion -. 1.0 in
  let shape = (n0 -. 1.0) /. scale in
  create ~yield_ ~shape ~scale

let mean_n0 t = 1.0 +. (t.shape *. t.scale)

let p t n =
  if n < 0 then 0.0
  else if n = 0 then t.yield_
  else begin
    (* n - 1 ~ NegBinomial(mean k·theta, alpha = k). *)
    let nb =
      Stats.Dist.Neg_binomial.create ~mean:(t.shape *. t.scale) ~alpha:t.shape
    in
    (1.0 -. t.yield_) *. Stats.Dist.Neg_binomial.pmf nb (n - 1)
  end

let ybg t f =
  if not (0.0 <= f && f <= 1.0) then invalid_arg "Griffin.ybg: coverage outside [0,1]";
  (* E[e^{-Lambda f}] for Lambda ~ Gamma(k, theta) is (1 + theta f)^{-k}. *)
  (1.0 -. f) *. (1.0 -. t.yield_) *. ((1.0 +. (t.scale *. f)) ** -.t.shape)

let reject_rate t f =
  let bad_passing = ybg t f in
  if t.yield_ +. bad_passing = 0.0 then 0.0
  else bad_passing /. (t.yield_ +. bad_passing)

let p_reject t f =
  if not (0.0 <= f && f <= 1.0) then
    invalid_arg "Griffin.p_reject: coverage outside [0,1]";
  (1.0 -. t.yield_) *. (1.0 -. ((1.0 -. f) *. ((1.0 +. (t.scale *. f)) ** -.t.shape)))

let required_coverage t ~reject =
  if not (0.0 < reject && reject < 1.0) then
    invalid_arg "Griffin.required_coverage: reject outside (0,1)";
  let r f = reject_rate t f in
  if r 0.0 <= reject then Some 0.0
  else if r 1.0 > reject then None
  else Some (Stats.Solver.brent ~f:(fun f -> r f -. reject) ~lo:0.0 ~hi:1.0 ())
