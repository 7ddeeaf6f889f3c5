module Poisson = struct
  type t = { lambda : float }

  let create lambda =
    if not (0.0 <= lambda) then invalid_arg "Poisson.create: negative mean";
    { lambda }

  let log_pmf { lambda } k =
    if k < 0 then neg_infinity
    else if lambda = 0.0 then (if k = 0 then 0.0 else neg_infinity)
    else (float_of_int k *. log lambda) -. lambda -. Special.log_factorial k

  let pmf t k = exp (log_pmf t k)

  let cdf { lambda } k =
    if k < 0 then 0.0
    else if lambda = 0.0 then 1.0
    else Special.gamma_q (float_of_int (k + 1)) lambda

  let mean { lambda } = lambda
  let variance { lambda } = lambda
  let sample { lambda } rng = Rng.poisson rng lambda
end

module Shifted_poisson = struct
  type t = { n0 : float }

  let create n0 =
    if not (1.0 <= n0) then invalid_arg "Shifted_poisson.create: n0 must be >= 1";
    { n0 }

  let pmf { n0 } n =
    if n < 1 then 0.0 else Poisson.pmf (Poisson.create (n0 -. 1.0)) (n - 1)

  let cdf { n0 } n =
    if n < 1 then 0.0 else Poisson.cdf (Poisson.create (n0 -. 1.0)) (n - 1)

  let mean { n0 } = n0
  let variance { n0 } = n0 -. 1.0
  let sample { n0 } rng = 1 + Rng.poisson rng (n0 -. 1.0)
end

module Binomial = struct
  type t = { n : int; p : float }

  let create ~n ~p =
    if n < 0 then invalid_arg "Binomial.create: negative n";
    if not (0.0 <= p && p <= 1.0) then invalid_arg "Binomial.create: p outside [0,1]";
    { n; p }

  let log_pmf { n; p } k =
    if k < 0 || k > n then neg_infinity
    else if p = 0.0 then (if k = 0 then 0.0 else neg_infinity)
    else if p = 1.0 then (if k = n then 0.0 else neg_infinity)
    else
      Special.log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. log1p (-.p))

  let pmf t k = exp (log_pmf t k)

  let cdf { n; p } k =
    if k < 0 then 0.0
    else if k >= n then 1.0
    else Special.beta_inc (float_of_int (n - k)) (float_of_int (k + 1)) (1.0 -. p)

  let mean { n; p } = float_of_int n *. p
  let variance { n; p } = float_of_int n *. p *. (1.0 -. p)
  let sample { n; p } rng = Rng.binomial rng ~n ~p
end

module Hypergeometric = struct
  type t = { total : int; marked : int; draws : int }

  let create ~total ~marked ~draws =
    if total < 0 || marked < 0 || draws < 0 then
      invalid_arg "Hypergeometric.create: negative parameter";
    if marked > total || draws > total then
      invalid_arg "Hypergeometric.create: marked and draws must not exceed total";
    { total; marked; draws }

  let log_pmf { total; marked; draws } k =
    if k < 0 || k > marked || draws - k > total - marked || k > draws then neg_infinity
    else
      Special.log_choose marked k
      +. Special.log_choose (total - marked) (draws - k)
      -. Special.log_choose total draws

  let pmf t k = exp (log_pmf t k)

  let cdf t k =
    let lo = max 0 (t.draws - (t.total - t.marked)) in
    if k < lo then 0.0
    else begin
      let acc = ref 0.0 in
      for i = lo to min k (min t.marked t.draws) do
        acc := !acc +. pmf t i
      done;
      min 1.0 !acc
    end

  let mean { total; marked; draws } =
    if total = 0 then 0.0
    else float_of_int draws *. float_of_int marked /. float_of_int total

  let variance { total; marked; draws } =
    if total <= 1 then 0.0
    else begin
      let n = float_of_int total
      and m = float_of_int marked
      and d = float_of_int draws in
      d *. (m /. n) *. (1.0 -. (m /. n)) *. ((n -. d) /. (n -. 1.0))
    end

  let sample { total; marked; draws } rng =
    (* Sequential sampling: walk the draws updating the urn composition. *)
    let rec loop remaining_total remaining_marked remaining_draws hits =
      if remaining_draws = 0 || remaining_marked = 0 then hits
      else begin
        let take_marked =
          Rng.uniform rng
          < float_of_int remaining_marked /. float_of_int remaining_total
        in
        loop (remaining_total - 1)
          (if take_marked then remaining_marked - 1 else remaining_marked)
          (remaining_draws - 1)
          (if take_marked then hits + 1 else hits)
      end
    in
    loop total marked draws 0
end

module Geometric = struct
  type t = { p : float }

  let create p =
    if not (0.0 < p && p <= 1.0) then invalid_arg "Geometric.create: p outside (0,1]";
    { p }

  let pmf { p } k = if k < 0 then 0.0 else p *. ((1.0 -. p) ** float_of_int k)
  let cdf { p } k = if k < 0 then 0.0 else 1.0 -. ((1.0 -. p) ** float_of_int (k + 1))
  let mean { p } = (1.0 -. p) /. p
  let variance { p } = (1.0 -. p) /. (p *. p)

  let sample { p } rng =
    if p = 1.0 then 0
    else int_of_float (log (Rng.uniform_pos rng) /. log1p (-.p))
end

module Neg_binomial = struct
  type t = { mean : float; alpha : float }

  let create ~mean ~alpha =
    if not (0.0 <= mean) then invalid_arg "Neg_binomial.create: negative mean";
    if not (0.0 < alpha) then invalid_arg "Neg_binomial.create: nonpositive alpha";
    { mean; alpha }

  let log_pmf { mean; alpha } k =
    if k < 0 then neg_infinity
    else if mean = 0.0 then (if k = 0 then 0.0 else neg_infinity)
    else begin
      let fk = float_of_int k in
      let p = alpha /. (alpha +. mean) in
      Special.log_gamma (alpha +. fk)
      -. Special.log_factorial k -. Special.log_gamma alpha
      +. (alpha *. log p)
      +. (fk *. log1p (-.p))
    end

  let pmf t k = exp (log_pmf t k)

  let cdf t k =
    if k < 0 then 0.0
    else begin
      (* I_p(alpha, k+1) with p = alpha/(alpha+mean). *)
      let p = t.alpha /. (t.alpha +. t.mean) in
      Special.beta_inc t.alpha (float_of_int (k + 1)) p
    end

  let variance { mean; alpha } = mean +. (mean *. mean /. alpha)
  let sample { mean; alpha } rng = Rng.neg_binomial rng ~mean ~alpha
end

module Exponential = struct
  type t = { mean : float }

  let create mean =
    if not (0.0 < mean) then invalid_arg "Exponential.create: nonpositive mean";
    { mean }

  let pdf { mean } x = if x < 0.0 then 0.0 else exp (-.x /. mean) /. mean
  let cdf { mean } x = if x < 0.0 then 0.0 else 1.0 -. exp (-.x /. mean)
  let mean { mean } = mean
  let variance { mean } = mean *. mean
  let sample { mean } rng = Rng.exponential rng mean
end

module Gamma_dist = struct
  type t = { shape : float; scale : float }

  let create ~shape ~scale =
    if not (0.0 < shape && 0.0 < scale) then
      invalid_arg "Gamma_dist.create: nonpositive parameter";
    { shape; scale }

  let pdf { shape; scale } x =
    if x < 0.0 then 0.0
    else if x = 0.0 then (if shape < 1.0 then infinity else if shape = 1.0 then 1.0 /. scale else 0.0)
    else
      exp
        (((shape -. 1.0) *. log x) -. (x /. scale)
        -. Special.log_gamma shape -. (shape *. log scale))

  let cdf { shape; scale } x =
    if x <= 0.0 then 0.0 else Special.gamma_p shape (x /. scale)

  let mean { shape; scale } = shape *. scale
  let variance { shape; scale } = shape *. scale *. scale
  let sample { shape; scale } rng = Rng.gamma rng ~shape ~scale
end

module Normal = struct
  type t = { mu : float; sigma : float }

  let create ~mu ~sigma =
    if not (0.0 < sigma) then invalid_arg "Normal.create: nonpositive sigma";
    { mu; sigma }

  let pdf { mu; sigma } x =
    let z = (x -. mu) /. sigma in
    exp (-0.5 *. z *. z) /. (sigma *. sqrt (2.0 *. Float.pi))

  let cdf { mu; sigma } x =
    let z = (x -. mu) /. (sigma *. sqrt 2.0) in
    0.5 *. (1.0 +. Special.erf z)

  (* Acklam's rational approximation refined with one Newton step. *)
  let quantile t p =
    if not (0.0 < p && p < 1.0) then invalid_arg "Normal.quantile: p outside (0,1)";
    let a =
      [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
         1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
    and b =
      [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
         6.680131188771972e+01; -1.328068155288572e+01 |]
    and c =
      [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
         -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
    and d =
      [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
         3.754408661907416e+00 |]
    in
    let plow = 0.02425 in
    let z =
      if p < plow then begin
        let q = sqrt (-2.0 *. log p) in
        (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
        /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
      end
      else if p <= 1.0 -. plow then begin
        let q = p -. 0.5 in
        let r = q *. q in
        (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
        /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
      end
      else begin
        let q = sqrt (-2.0 *. log1p (-.p)) in
        -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
           /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
      end
    in
    let std = { mu = 0.0; sigma = 1.0 } in
    let e = cdf std z -. p in
    let u = e *. sqrt (2.0 *. Float.pi) *. exp (z *. z /. 2.0) in
    let z = z -. (u /. (1.0 +. (z *. u /. 2.0))) in
    t.mu +. (t.sigma *. z)

  let mean { mu; sigma = _ } = mu
  let variance { mu = _; sigma } = sigma *. sigma
  let sample { mu; sigma } rng = Rng.normal rng ~mu ~sigma
end
