(* Lanczos approximation, g = 7, n = 9 coefficients (Boost/GSL constants). *)
let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if not (0.0 < x) then invalid_arg "Special.log_gamma: nonpositive argument";
  if x < 0.5 then
    (* Reflection keeps the Lanczos series in its accurate region. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. (((x +. 0.5) *. log t) -. t) +. log !acc
  end

let log_factorial_table =
  let table = Array.make 1024 0.0 in
  for n = 2 to Array.length table - 1 do
    table.(n) <- table.(n - 1) +. log (float_of_int n)
  done;
  table

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument";
  if n < Array.length log_factorial_table then log_factorial_table.(n)
  else log_gamma (float_of_int n +. 1.0)

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

(* Lower incomplete gamma by series expansion; converges fast for x < a+1. *)
let gamma_p_series a x =
  let rec loop n term sum =
    let term = term *. x /. (a +. float_of_int n) in
    let sum = sum +. term in
    if abs_float term < abs_float sum *. 1e-16 || n > 10_000 then sum
    else loop (n + 1) term sum
  in
  let first = 1.0 /. a in
  let sum = loop 1 first first in
  sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

(* Upper incomplete gamma by Lentz continued fraction; for x >= a+1. *)
let gamma_q_continued_fraction a x =
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= 10_000 do
    let fi = float_of_int !i in
    let an = -.fi *. (fi -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if abs_float !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if abs_float (delta -. 1.0) < 1e-16 then continue := false;
    incr i
  done;
  !h *. exp ((-.x) +. (a *. log x) -. log_gamma a)

let gamma_p a x =
  if not (0.0 < a) then invalid_arg "Special.gamma_p: nonpositive a";
  if not (0.0 <= x) then invalid_arg "Special.gamma_p: negative x";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x
  else 1.0 -. gamma_q_continued_fraction a x

let gamma_q a x =
  if not (0.0 < a) then invalid_arg "Special.gamma_q: nonpositive a";
  if not (0.0 <= x) then invalid_arg "Special.gamma_q: negative x";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series a x
  else gamma_q_continued_fraction a x

let erf x =
  if x < 0.0 then -.gamma_p 0.5 (x *. x) else gamma_p 0.5 (x *. x)

(* Continued fraction for the incomplete beta (Numerical Recipes betacf). *)
let betacf a b x =
  let tiny = 1e-300 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if abs_float !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= 10_000 do
    let fm = float_of_int !m in
    let m2 = 2.0 *. fm in
    let aa = fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if abs_float (delta -. 1.0) < 1e-15 then continue := false;
    incr m
  done;
  !h

let beta_inc a b x =
  if not (0.0 < a && 0.0 < b) then
    invalid_arg "Special.beta_inc: nonpositive parameter";
  if not (0.0 <= x && x <= 1.0) then invalid_arg "Special.beta_inc: x outside [0,1]";
  if x = 0.0 then 0.0
  else if x = 1.0 then 1.0
  else begin
    let log_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x) +. (b *. log1p (-.x))
    in
    let front = exp log_front in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. betacf a b x /. a
    else 1.0 -. (front *. betacf b a (1.0 -. x) /. b)
  end

let log_sum_exp xs =
  let m = Array.fold_left max neg_infinity xs in
  if m = neg_infinity then neg_infinity
  else begin
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. exp (x -. m)) xs;
    m +. log !acc
  end
