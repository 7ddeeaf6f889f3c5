type t = { mutable state : int64; mutable spare_normal : float option }

let golden_gamma = 0x9E3779B97F4A7C15L

let default_seed = 0x1531_AC81_DA81L

let create ?(seed = 0) () =
  let base = if seed = 0 then default_seed else Int64.of_int seed in
  { state = base; spare_normal = None }

let copy rng = { state = rng.state; spare_normal = rng.spare_normal }

(* splitmix64 finalizer: mixes the incremented state into an output word. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 rng =
  rng.state <- Int64.add rng.state golden_gamma;
  mix rng.state

let split rng =
  let seed_word = bits64 rng in
  { state = mix seed_word; spare_normal = None }

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection to avoid modulo bias: with r uniform on [0, 2^63), v is
     unbiased iff r's bucket [r - v, r - v + b) fits below 2^63, i.e.
     accept iff r - v <= 2^63 - b.  Equivalently, r - v + (b - 1)
     overflows int64 exactly on the truncated final bucket. *)
  let b = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (bits64 rng) 1 in
    let v = Int64.rem r b in
    if Int64.add (Int64.sub r v) (Int64.sub b 1L) < 0L then loop ()
    else Int64.to_int v
  in
  loop ()

let int_in rng lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int rng (hi - lo + 1)

let bool rng = Int64.logand (bits64 rng) 1L = 1L

let uniform rng =
  (* 53 top bits give a uniform double in [0,1). *)
  let r = Int64.shift_right_logical (bits64 rng) 11 in
  Int64.to_float r *. 0x1.0p-53

let uniform_pos rng = 1.0 -. uniform rng

let float rng x = uniform rng *. x

let bernoulli rng p = uniform rng < p

let exponential rng mean =
  if not (0.0 <= mean) then invalid_arg "Rng.exponential: negative mean";
  -.mean *. log (uniform_pos rng)

let normal rng ~mu ~sigma =
  match rng.spare_normal with
  | Some z ->
    rng.spare_normal <- None;
    mu +. (sigma *. z)
  | None ->
    let rec polar () =
      let u = (2.0 *. uniform rng) -. 1.0 in
      let v = (2.0 *. uniform rng) -. 1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || s = 0.0 then polar ()
      else begin
        let m = sqrt (-2.0 *. log s /. s) in
        rng.spare_normal <- Some (v *. m);
        u *. m
      end
    in
    mu +. (sigma *. polar ())

let rec gamma rng ~shape ~scale =
  if not (0.0 < shape && 0.0 < scale) then
    invalid_arg "Rng.gamma: nonpositive parameter";
  if shape < 1.0 then begin
    (* Boost: Gamma(a) = Gamma(a+1) * U^{1/a}. *)
    let g = gamma rng ~shape:(shape +. 1.0) ~scale:1.0 in
    scale *. g *. (uniform_pos rng ** (1.0 /. shape))
  end
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = normal rng ~mu:0.0 ~sigma:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else begin
        let v3 = v *. v *. v in
        let u = uniform_pos rng in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v3
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v3 +. log v3)) then d *. v3
        else loop ()
      end
    in
    scale *. loop ()
  end

(* Hörmann's transformed rejection with squeeze (PTRS, 1993), exact for
   a mean of 10 or more: a candidate [k] comes from one uniform pair
   through a hat function, most are accepted by the squeeze
   [us >= 0.07 && v <= vr], and the rest are accepted or rejected
   against the Poisson log-density.  About 1.15 pairs per draw,
   whatever the mean.  [k] stays a float until it is known to be
   non-negative: [us = 0] sends it to minus infinity. *)
let poisson_ptrs rng lambda =
  let log_lambda = log lambda in
  let b = 0.931 +. (2.53 *. sqrt lambda) in
  let a = -0.059 +. (0.02483 *. b) in
  let log_inv_alpha = log (1.1239 +. (1.1328 /. (b -. 3.4))) in
  let vr = 0.9277 -. (3.6224 /. (b -. 2.0)) in
  let rec draw () =
    let u = uniform rng -. 0.5 in
    let v = uniform rng in
    let us = 0.5 -. Float.abs u in
    let k = floor ((((2.0 *. a /. us) +. b) *. u) +. lambda +. 0.43) in
    if us >= 0.07 && v <= vr then int_of_float k
    else if k < 0.0 || (us < 0.013 && v > us) then draw ()
    else begin
      let k = int_of_float k in
      if log v +. log_inv_alpha -. log ((a /. (us *. us)) +. b)
         <= -.lambda +. (float_of_int k *. log_lambda) -. Special.log_factorial k
      then k
      else draw ()
    end
  in
  draw ()

let poisson rng lambda =
  if not (Float.is_finite lambda) then invalid_arg "Rng.poisson: mean not finite";
  if lambda < 0.0 then invalid_arg "Rng.poisson: negative mean";
  if lambda = 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth: multiply uniforms until the product drops below e^{-lambda}. *)
    let threshold = exp (-.lambda) in
    let rec loop k p =
      let p = p *. uniform rng in
      if p <= threshold then k else loop (k + 1) p
    in
    loop 0 1.0
  end
  else poisson_ptrs rng lambda

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Rng.binomial: negative n";
  if not (0.0 <= p && p <= 1.0) then invalid_arg "Rng.binomial: p outside [0,1]";
  if p = 0.0 || n = 0 then 0
  else if p = 1.0 then n
  else begin
    (* Work with q = min(p, 1-p) and skip over failures geometrically:
       expected time O(nq) rather than O(n). *)
    let flipped = p > 0.5 in
    let q = if flipped then 1.0 -. p else p in
    let log1mq = log1p (-.q) in
    let rec loop i successes =
      (* Number of failures before the next success is geometric. *)
      let skip = int_of_float (log (uniform_pos rng) /. log1mq) in
      let i = i + skip + 1 in
      if i > n then successes else loop i (successes + 1)
    in
    let s = loop 0 0 in
    if flipped then n - s else s
  end

let neg_binomial rng ~mean ~alpha =
  if not (0.0 <= mean) then invalid_arg "Rng.neg_binomial: negative mean";
  if not (0.0 < alpha) then invalid_arg "Rng.neg_binomial: nonpositive alpha";
  if mean = 0.0 then 0
  else begin
    let rate = gamma rng ~shape:alpha ~scale:(mean /. alpha) in
    poisson rng rate
  end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement: k outside [0,n]";
  (* Partial Fisher-Yates over a sparse permutation held in a hash table. *)
  let swapped = Hashtbl.create (2 * k) in
  let value_at i = match Hashtbl.find_opt swapped i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in rng i (n - 1) in
      let vi = value_at i and vj = value_at j in
      Hashtbl.replace swapped j vi;
      Hashtbl.replace swapped i vj;
      vj)
