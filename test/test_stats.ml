(* Tests for the statistics substrate. *)

let close = Oracle.close

let rng_seed = 20260705

(* ------------------------------- rng ------------------------------- *)

let test_rng_determinism () =
  let a = Stats.Rng.create ~seed:42 () in
  let b = Stats.Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Stats.Rng.create ~seed:1 () in
  let b = Stats.Rng.create ~seed:2 () in
  let equal_count = ref 0 in
  for _ = 1 to 64 do
    if Stats.Rng.bits64 a = Stats.Rng.bits64 b then incr equal_count
  done;
  Alcotest.(check bool) "streams differ" true (!equal_count < 2)

let test_rng_int_range () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_in_range () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 1_000 do
    let v = Stats.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_int_uniform_chi_square () =
  (* Pearson chi-square of the rejection-sampled draw against the
     uniform pmf, for several bucket counts, with its p-value
     Q((k-1)/2, X2/2).  Every expected count is at least 312, so no
     cell needs pooling. *)
  List.iter
    (fun bound ->
      let rng = Stats.Rng.create ~seed:(rng_seed + bound) () in
      let draws = 20_000 in
      let observed = Array.make bound 0 in
      for _ = 1 to draws do
        let v = Stats.Rng.int rng bound in
        observed.(v) <- observed.(v) + 1
      done;
      let expected = float_of_int draws /. float_of_int bound in
      let statistic =
        Array.fold_left
          (fun acc o ->
            let d = float_of_int o -. expected in
            acc +. (d *. d /. expected))
          0.0 observed
      in
      let p_value =
        Stats.Special.gamma_q (float_of_int (bound - 1) /. 2.0) (statistic /. 2.0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "bound %d uniform (p = %.4f)" bound p_value)
        true (p_value > 1e-4))
    [ 3; 7; 10; 64 ]

let test_rng_int_boundary_bounds () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "bound 1 is constant" 0 (Stats.Rng.int rng 1)
  done;
  (* The widest legal bound: the rejection region is the truncated
     bucket [2^63 - (2^63 mod b), 2^63); every accepted draw must still
     land in [0, bound). *)
  for _ = 1 to 1_000 do
    let v = Stats.Rng.int rng max_int in
    Alcotest.(check bool) "bound max_int in range" true (v >= 0 && v < max_int)
  done

let test_rng_uniform_range () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 10_000 do
    let u = Stats.Rng.uniform rng in
    Alcotest.(check bool) "[0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_pos_never_zero () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "(0,1]" true (Stats.Rng.uniform_pos rng > 0.0)
  done

let mean_of n sample =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. sample rng
  done;
  !acc /. float_of_int n

let test_rng_poisson_mean () =
  let m = mean_of 20_000 (fun rng -> float_of_int (Stats.Rng.poisson rng 7.3)) in
  close ~eps:0.15 7.3 m

let test_rng_poisson_large_mean () =
  let m = mean_of 5_000 (fun rng -> float_of_int (Stats.Rng.poisson rng 120.0)) in
  close ~eps:1.5 120.0 m

(* The sample mean and variance of [n] seeded draws at mean [lambda],
   each within five standard errors: sqrt(lambda / n) for the mean and
   sqrt((2 lambda^2 + lambda) / n) for the variance (the Poisson fourth
   central moment is lambda (1 + 3 lambda)). *)
let check_poisson_moments lambda =
  let n = 20_000 in
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let draws = Array.init n (fun _ -> float_of_int (Stats.Rng.poisson rng lambda)) in
  let nf = float_of_int n in
  let mean = Array.fold_left ( +. ) 0.0 draws /. nf in
  let variance =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 draws
    /. (nf -. 1.0)
  in
  close ~eps:(5.0 *. sqrt (lambda /. nf)) lambda mean;
  close
    ~eps:(5.0 *. sqrt (((2.0 *. lambda *. lambda) +. lambda) /. nf))
    lambda variance

let test_rng_poisson_moments_1e3 () = check_poisson_moments 1e3
let test_rng_poisson_moments_1e9 () = check_poisson_moments 1e9

let test_rng_poisson_zero () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  Alcotest.(check int) "poisson 0" 0 (Stats.Rng.poisson rng 0.0)

let test_rng_gamma_mean () =
  let m = mean_of 20_000 (fun rng -> Stats.Rng.gamma rng ~shape:2.5 ~scale:1.5) in
  close ~eps:0.1 3.75 m

let test_rng_gamma_small_shape () =
  let m = mean_of 20_000 (fun rng -> Stats.Rng.gamma rng ~shape:0.4 ~scale:2.0) in
  close ~eps:0.05 0.8 m

let test_rng_binomial_mean () =
  let m = mean_of 20_000 (fun rng -> float_of_int (Stats.Rng.binomial rng ~n:40 ~p:0.3)) in
  close ~eps:0.15 12.0 m

let test_rng_binomial_edge () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  Alcotest.(check int) "p=0" 0 (Stats.Rng.binomial rng ~n:10 ~p:0.0);
  Alcotest.(check int) "p=1" 10 (Stats.Rng.binomial rng ~n:10 ~p:1.0);
  Alcotest.(check int) "n=0" 0 (Stats.Rng.binomial rng ~n:0 ~p:0.5)

let test_rng_binomial_range () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 2_000 do
    let v = Stats.Rng.binomial rng ~n:17 ~p:0.8 in
    Alcotest.(check bool) "0..n" true (v >= 0 && v <= 17)
  done

let test_rng_neg_binomial_moments () =
  let n = 40_000 in
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let samples =
    Array.init n (fun _ -> float_of_int (Stats.Rng.neg_binomial rng ~mean:4.0 ~alpha:2.0))
  in
  close ~eps:0.15 4.0 (Stats.Summary.mean samples);
  (* variance = mean + mean^2/alpha = 4 + 8 = 12 *)
  close ~eps:1.0 12.0 (Stats.Summary.variance samples)

let test_rng_normal_moments () =
  let n = 40_000 in
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let samples = Array.init n (fun _ -> Stats.Rng.normal rng ~mu:3.0 ~sigma:2.0) in
  close ~eps:0.06 3.0 (Stats.Summary.mean samples);
  close ~eps:0.15 4.0 (Stats.Summary.variance samples)

let test_rng_exponential_mean () =
  let m = mean_of 40_000 (fun rng -> Stats.Rng.exponential rng 2.5) in
  close ~eps:0.08 2.5 m

let test_rng_shuffle_permutes () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let a = Array.init 50 (fun i -> i) in
  Stats.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  for _ = 1 to 200 do
    let sample = Stats.Rng.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "size" 10 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < 30);
        if i > 0 then Alcotest.(check bool) "distinct" true (sorted.(i - 1) < v))
      sorted
  done

let test_rng_sample_full () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let sample = Stats.Rng.sample_without_replacement rng ~k:8 ~n:8 in
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all of them" (Array.init 8 (fun i -> i)) sorted

let test_rng_split_independent () =
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let child = Stats.Rng.split rng in
  let a = Stats.Rng.bits64 rng and b = Stats.Rng.bits64 child in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_invalid_args () =
  let rng = Stats.Rng.create () in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int rng 0));
  Alcotest.check_raises "int_in empty" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Stats.Rng.int_in rng 3 2));
  (* NaN slips past a check written [x < lo], and a non-finite Poisson
     mean would halve forever: each sampler refuses both up front. *)
  let nan = Float.nan and inf = Float.infinity in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) name true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [ ("poisson nan", fun () -> Stats.Rng.poisson rng nan);
      ("poisson inf", fun () -> Stats.Rng.poisson rng inf);
      ("poisson -inf", fun () -> Stats.Rng.poisson rng (-.inf));
      ("shifted poisson inf", fun () ->
          Stats.Dist.Shifted_poisson.(sample (create inf) rng));
      ("neg_binomial inf mean", fun () ->
          Stats.Rng.neg_binomial rng ~mean:inf ~alpha:1.0);
      ("binomial p nan", fun () -> Stats.Rng.binomial rng ~n:4 ~p:nan);
      ("neg_binomial alpha nan", fun () ->
          Stats.Rng.neg_binomial rng ~mean:1.0 ~alpha:nan);
      ("exponential nan", fun () -> int_of_float (Stats.Rng.exponential rng nan));
      ("gamma nan", fun () -> int_of_float (Stats.Rng.gamma rng ~shape:nan ~scale:1.0));
      ("Poisson.create nan", fun () ->
          Stats.Dist.Poisson.(sample (create nan) rng));
      ("Shifted_poisson.create nan", fun () ->
          Stats.Dist.Shifted_poisson.(sample (create nan) rng)) ]

(* ----------------------------- special ----------------------------- *)

let test_log_gamma_factorials () =
  for n = 1 to 20 do
    let expected = Stats.Special.log_factorial (n - 1) in
    close ~eps:1e-9 expected (Stats.Special.log_gamma (float_of_int n))
  done

let test_log_gamma_half () =
  (* Gamma(1/2) = sqrt(pi) *)
  close ~eps:1e-10 (0.5 *. log Float.pi) (Stats.Special.log_gamma 0.5)

let test_log_gamma_reflection_region () =
  (* Gamma(0.3) = 2.99156898768759; check against a known value. *)
  close ~eps:1e-8 (log 2.99156898768759) (Stats.Special.log_gamma 0.3)

let test_log_choose () =
  close ~eps:1e-9 (log 252.0) (Stats.Special.log_choose 10 5);
  close ~eps:1e-9 0.0 (Stats.Special.log_choose 10 0);
  close ~eps:1e-9 0.0 (Stats.Special.log_choose 10 10);
  Alcotest.(check bool) "out of range" true
    (Stats.Special.log_choose 5 6 = neg_infinity);
  Alcotest.(check bool) "negative" true (Stats.Special.log_choose 5 (-1) = neg_infinity)

let test_gamma_p_q_complement () =
  List.iter
    (fun (a, x) ->
      close ~eps:1e-10 1.0 (Stats.Special.gamma_p a x +. Stats.Special.gamma_q a x))
    [ (0.5, 0.2); (1.0, 1.0); (3.0, 2.0); (10.0, 12.0); (2.0, 20.0) ]

let test_gamma_p_exponential () =
  (* P(1, x) = 1 - e^-x. *)
  List.iter
    (fun x -> close ~eps:1e-10 (1.0 -. exp (-.x)) (Stats.Special.gamma_p 1.0 x))
    [ 0.1; 0.5; 1.0; 3.0; 10.0 ]

let test_erf_values () =
  close ~eps:1e-7 0.0 (Stats.Special.erf 0.0);
  close ~eps:1e-7 0.8427007929 (Stats.Special.erf 1.0);
  close ~eps:1e-7 (-0.8427007929) (Stats.Special.erf (-1.0));
  close ~eps:1e-7 0.9953222650 (Stats.Special.erf 2.0)

let test_beta_inc_uniform () =
  (* I_x(1,1) = x. *)
  List.iter
    (fun x -> close ~eps:1e-10 x (Stats.Special.beta_inc 1.0 1.0 x))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let test_beta_inc_symmetry () =
  (* I_x(a,b) = 1 - I_{1-x}(b,a). *)
  List.iter
    (fun (a, b, x) ->
      close ~eps:1e-9
        (1.0 -. Stats.Special.beta_inc b a (1.0 -. x))
        (Stats.Special.beta_inc a b x))
    [ (2.0, 3.0, 0.3); (5.0, 1.5, 0.7); (0.5, 0.5, 0.2) ]

let test_log_sum_exp () =
  close ~eps:1e-10 (log 3.0) (Stats.Special.log_sum_exp [| 0.0; 0.0; 0.0 |]);
  close ~eps:1e-10 1000.0 (Stats.Special.log_sum_exp [| 1000.0; -1000.0 |]);
  Alcotest.(check bool) "empty" true
    (Stats.Special.log_sum_exp [||] = neg_infinity)

(* ------------------------------ dist ------------------------------- *)

let sum_pmf pmf lo hi =
  let acc = ref 0.0 in
  for k = lo to hi do
    acc := !acc +. pmf k
  done;
  !acc

let test_poisson_pmf_sums () =
  let d = Stats.Dist.Poisson.create 4.2 in
  close ~eps:1e-9 1.0 (sum_pmf (Stats.Dist.Poisson.pmf d) 0 200)

let test_poisson_cdf_matches_sum () =
  let d = Stats.Dist.Poisson.create 3.7 in
  for k = 0 to 20 do
    close ~eps:1e-9 (sum_pmf (Stats.Dist.Poisson.pmf d) 0 k) (Stats.Dist.Poisson.cdf d k)
  done

let test_shifted_poisson_support () =
  let d = Stats.Dist.Shifted_poisson.create 5.0 in
  close ~eps:1e-12 0.0 (Stats.Dist.Shifted_poisson.pmf d 0);
  close ~eps:1e-9 1.0 (sum_pmf (Stats.Dist.Shifted_poisson.pmf d) 1 200);
  close ~eps:1e-9 5.0
    (let acc = ref 0.0 in
     for n = 1 to 200 do
       acc := !acc +. (float_of_int n *. Stats.Dist.Shifted_poisson.pmf d n)
     done;
     !acc)

let test_shifted_poisson_degenerate () =
  (* n0 = 1: every defective chip has exactly one fault. *)
  let d = Stats.Dist.Shifted_poisson.create 1.0 in
  close ~eps:1e-12 1.0 (Stats.Dist.Shifted_poisson.pmf d 1);
  close ~eps:1e-12 0.0 (Stats.Dist.Shifted_poisson.pmf d 2)

let test_binomial_pmf_sums () =
  let d = Stats.Dist.Binomial.create ~n:25 ~p:0.37 in
  close ~eps:1e-9 1.0 (sum_pmf (Stats.Dist.Binomial.pmf d) 0 25)

let test_binomial_cdf () =
  let d = Stats.Dist.Binomial.create ~n:12 ~p:0.6 in
  for k = 0 to 12 do
    close ~eps:1e-8 (sum_pmf (Stats.Dist.Binomial.pmf d) 0 k) (Stats.Dist.Binomial.cdf d k)
  done

let test_hypergeometric_pmf_sums () =
  let d = Stats.Dist.Hypergeometric.create ~total:50 ~marked:12 ~draws:20 in
  close ~eps:1e-9 1.0 (sum_pmf (Stats.Dist.Hypergeometric.pmf d) 0 20)

let test_hypergeometric_mean () =
  let d = Stats.Dist.Hypergeometric.create ~total:50 ~marked:12 ~draws:20 in
  let mean =
    let acc = ref 0.0 in
    for k = 0 to 20 do
      acc := !acc +. (float_of_int k *. Stats.Dist.Hypergeometric.pmf d k)
    done;
    !acc
  in
  close ~eps:1e-9 (Stats.Dist.Hypergeometric.mean d) mean

let test_hypergeometric_q0_is_paper_q0 () =
  (* P(draw 0 marked) must equal the paper's exact escape q0. *)
  let total = 200 and marked = 7 in
  List.iter
    (fun f ->
      let draws = int_of_float (f *. float_of_int total) in
      let d = Stats.Dist.Hypergeometric.create ~total ~marked ~draws in
      close ~eps:1e-9
        (Quality.Escape.q0_exact ~total ~faulty:marked ~coverage:f)
        (Stats.Dist.Hypergeometric.pmf d 0))
    [ 0.1; 0.25; 0.5; 0.75 ]

let test_hypergeometric_sampler () =
  let d = Stats.Dist.Hypergeometric.create ~total:40 ~marked:10 ~draws:15 in
  let rng = Stats.Rng.create ~seed:rng_seed () in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let v = Stats.Dist.Hypergeometric.sample d rng in
    Alcotest.(check bool) "in support" true (v >= 0 && v <= 10);
    acc := !acc +. float_of_int v
  done;
  close ~eps:0.05 (Stats.Dist.Hypergeometric.mean d) (!acc /. float_of_int n)

let test_geometric_pmf_sums () =
  let d = Stats.Dist.Geometric.create 0.3 in
  close ~eps:1e-6 1.0 (sum_pmf (Stats.Dist.Geometric.pmf d) 0 200)

let test_neg_binomial_pmf_sums () =
  let d = Stats.Dist.Neg_binomial.create ~mean:5.0 ~alpha:1.5 in
  close ~eps:1e-6 1.0 (sum_pmf (Stats.Dist.Neg_binomial.pmf d) 0 2000)

let test_neg_binomial_poisson_limit () =
  (* alpha -> infinity degenerates to Poisson. *)
  let nb = Stats.Dist.Neg_binomial.create ~mean:3.0 ~alpha:1e7 in
  let p = Stats.Dist.Poisson.create 3.0 in
  for k = 0 to 15 do
    close ~eps:1e-5 (Stats.Dist.Poisson.pmf p k) (Stats.Dist.Neg_binomial.pmf nb k)
  done

let test_gamma_dist_cdf_median () =
  let d = Stats.Dist.Gamma_dist.create ~shape:2.0 ~scale:3.0 in
  (* Median of Gamma(2, 3) ~ 5.035; CDF at mean is > 0.5. *)
  close ~eps:1e-6 0.5 (Stats.Dist.Gamma_dist.cdf d 5.03504097004998);
  Alcotest.(check bool) "cdf(mean) > 0.5" true (Stats.Dist.Gamma_dist.cdf d 6.0 > 0.5)

let test_normal_cdf_quantile_roundtrip () =
  let d = Stats.Dist.Normal.create ~mu:1.0 ~sigma:2.0 in
  List.iter
    (fun p -> close ~eps:1e-8 p (Stats.Dist.Normal.cdf d (Stats.Dist.Normal.quantile d p)))
    [ 0.001; 0.01; 0.1; 0.5; 0.9; 0.99; 0.999 ]

let test_normal_cdf_known () =
  let d = Stats.Dist.Normal.create ~mu:0.0 ~sigma:1.0 in
  close ~eps:1e-7 0.5 (Stats.Dist.Normal.cdf d 0.0);
  close ~eps:1e-7 0.8413447460685429 (Stats.Dist.Normal.cdf d 1.0)

(* ----------------------------- solver ------------------------------ *)

let test_bisect_sqrt () =
  let f x = (x *. x) -. 2.0 in
  close ~eps:1e-9 (sqrt 2.0) (Stats.Solver.bisect ~f ~lo:0.0 ~hi:2.0 ())

let test_brent_sqrt () =
  let f x = (x *. x) -. 2.0 in
  close ~eps:1e-9 (sqrt 2.0) (Stats.Solver.brent ~f ~lo:0.0 ~hi:2.0 ())

let test_brent_transcendental () =
  (* x e^x = 1 -> x = Omega constant 0.5671432904. *)
  let f x = (x *. exp x) -. 1.0 in
  close ~eps:1e-8 0.567143290409784 (Stats.Solver.brent ~f ~lo:0.0 ~hi:1.0 ())

let test_solver_no_bracket () =
  Alcotest.check_raises "no bracket" Stats.Solver.No_bracket (fun () ->
      ignore (Stats.Solver.bisect ~f:(fun x -> (x *. x) +. 1.0) ~lo:(-1.0) ~hi:1.0 ()))

let test_find_bracket () =
  match Stats.Solver.find_bracket ~f:(fun x -> x -. 100.0) ~lo:0.0 ~hi:1.0 () with
  | Some (lo, hi) ->
    Alcotest.(check bool) "brackets" true (lo <= 100.0 && hi >= 100.0)
  | None -> Alcotest.fail "expected a bracket"

let test_golden_section () =
  let f x = (x -. 1.3) ** 2.0 in
  close ~eps:1e-6 1.3 (Stats.Solver.golden_section_min ~f ~lo:0.0 ~hi:3.0 ())

let test_newton () =
  let f x = (x *. x *. x) -. 8.0 in
  let df x = 3.0 *. x *. x in
  close ~eps:1e-8 2.0 (Stats.Solver.newton ~f ~df ~x0:5.0 ())

(* ------------------------------- fit ------------------------------- *)

let test_linear_regression_exact () =
  let points = List.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) +. 1.0)) in
  let fit = Stats.Fit.linear_regression points in
  close ~eps:1e-9 2.5 fit.Stats.Fit.slope;
  close ~eps:1e-9 1.0 fit.Stats.Fit.intercept;
  close ~eps:1e-9 1.0 fit.Stats.Fit.r_squared

let test_linear_regression_through_origin () =
  let points = [ (1.0, 3.0); (2.0, 6.0); (3.0, 9.0) ] in
  close ~eps:1e-9 3.0 (Stats.Fit.linear_regression_through_origin points)

let test_fit_scalar_recovers_parameter () =
  (* Recover c from noisy-free samples of y = exp(-c x). *)
  let c_true = 4.2 in
  let data = List.init 20 (fun i ->
      let x = float_of_int i /. 20.0 in
      (x, exp (-.c_true *. x)))
  in
  let loss c =
    Stats.Fit.sum_squared_error ~model:(fun x -> exp (-.c *. x)) data
  in
  let c_hat, residual = Stats.Fit.fit_scalar ~loss ~lo:1.0 ~hi:20.0 () in
  close ~eps:1e-4 c_true c_hat;
  Alcotest.(check bool) "near-zero residual" true (residual < 1e-8)

(* ----------------------------- summary ----------------------------- *)

let test_summary_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close ~eps:1e-12 5.0 (Stats.Summary.mean xs);
  close ~eps:1e-9 (32.0 /. 7.0) (Stats.Summary.variance xs)

let test_summary_median_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close ~eps:1e-12 2.5 (Stats.Summary.median xs);
  close ~eps:1e-12 1.0 (Stats.Summary.quantile xs 0.0);
  close ~eps:1e-12 4.0 (Stats.Summary.quantile xs 1.0)

let test_summary_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  close ~eps:1e-12 1.0 (Stats.Summary.correlation xs ys);
  let anti = [| 8.0; 6.0; 4.0; 2.0 |] in
  close ~eps:1e-12 (-1.0) (Stats.Summary.correlation xs anti)

let test_summary_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0; 0.5 |] in
  let h = Stats.Summary.histogram ~bins:2 xs in
  Alcotest.(check int) "total preserved" 5 (Array.fold_left ( + ) 0 h.Stats.Summary.counts)

(* --------------------------- qcheck props -------------------------- *)

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:200 ~name:"poisson cdf is monotone"
      (pair (float_range 0.1 30.0) (int_range 0 50))
      (fun (lambda, k) ->
        let d = Stats.Dist.Poisson.create lambda in
        Stats.Dist.Poisson.cdf d k <= Stats.Dist.Poisson.cdf d (k + 1) +. 1e-12);
    Test.make ~count:200 ~name:"gamma_p in [0,1]"
      (pair (float_range 0.1 50.0) (float_range 0.0 100.0))
      (fun (a, x) ->
        let p = Stats.Special.gamma_p a x in
        p >= -1e-12 && p <= 1.0 +. 1e-12);
    Test.make ~count:200 ~name:"log_choose symmetry"
      (pair (int_range 0 200) (int_range 0 200))
      (fun (n, k) ->
        k > n
        || abs_float (Stats.Special.log_choose n k -. Stats.Special.log_choose n (n - k))
           < 1e-9);
    Test.make ~count:100 ~name:"quantile within data range"
      (pair (list_of_size (Gen.int_range 1 50) (float_range (-100.0) 100.0))
         (float_range 0.0 1.0))
      (fun (xs, q) ->
        let arr = Array.of_list xs in
        let v = Stats.Summary.quantile arr q in
        v >= Stats.Summary.minimum arr -. 1e-9 && v <= Stats.Summary.maximum arr +. 1e-9);
    Test.make ~count:100 ~name:"sample_without_replacement distinct"
      (pair (int_range 0 30) (int_range 30 100))
      (fun (k, n) ->
        let rng = Stats.Rng.create ~seed:(k + (n * 1000)) () in
        let sample = Stats.Rng.sample_without_replacement rng ~k ~n in
        let sorted = Array.copy sample in
        Array.sort compare sorted;
        let distinct = ref true in
        Array.iteri (fun i v -> if i > 0 && sorted.(i - 1) >= v then distinct := false) sorted;
        Array.length sample = k && !distinct) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "stats.rng",
      [ tc "determinism" test_rng_determinism;
        tc "different seeds" test_rng_different_seeds;
        tc "int range" test_rng_int_range;
        tc "int uniform (chi-square)" test_rng_int_uniform_chi_square;
        tc "int boundary bounds" test_rng_int_boundary_bounds;
        tc "int_in range" test_rng_int_in_range;
        tc "uniform range" test_rng_uniform_range;
        tc "uniform_pos positive" test_rng_uniform_pos_never_zero;
        tc "poisson mean" test_rng_poisson_mean;
        tc "poisson large mean" test_rng_poisson_large_mean;
        tc "poisson mean and variance at 1e3" test_rng_poisson_moments_1e3;
        tc "poisson mean and variance at 1e9" test_rng_poisson_moments_1e9;
        tc "poisson zero" test_rng_poisson_zero;
        tc "gamma mean" test_rng_gamma_mean;
        tc "gamma small shape" test_rng_gamma_small_shape;
        tc "binomial mean" test_rng_binomial_mean;
        tc "binomial edges" test_rng_binomial_edge;
        tc "binomial range" test_rng_binomial_range;
        tc "neg binomial moments" test_rng_neg_binomial_moments;
        tc "normal moments" test_rng_normal_moments;
        tc "exponential mean" test_rng_exponential_mean;
        tc "shuffle permutes" test_rng_shuffle_permutes;
        tc "sample without replacement" test_rng_sample_without_replacement;
        tc "sample full" test_rng_sample_full;
        tc "split independent" test_rng_split_independent;
        tc "invalid args" test_rng_invalid_args ] );
    ( "stats.special",
      [ tc "log_gamma factorials" test_log_gamma_factorials;
        tc "log_gamma half" test_log_gamma_half;
        tc "log_gamma reflection" test_log_gamma_reflection_region;
        tc "log_choose" test_log_choose;
        tc "gamma P+Q=1" test_gamma_p_q_complement;
        tc "gamma_p exponential" test_gamma_p_exponential;
        tc "erf values" test_erf_values;
        tc "beta_inc uniform" test_beta_inc_uniform;
        tc "beta_inc symmetry" test_beta_inc_symmetry;
        tc "log_sum_exp" test_log_sum_exp ] );
    ( "stats.dist",
      [ tc "poisson pmf sums" test_poisson_pmf_sums;
        tc "poisson cdf" test_poisson_cdf_matches_sum;
        tc "shifted poisson support/mean" test_shifted_poisson_support;
        tc "shifted poisson degenerate" test_shifted_poisson_degenerate;
        tc "binomial pmf sums" test_binomial_pmf_sums;
        tc "binomial cdf" test_binomial_cdf;
        tc "hypergeometric pmf sums" test_hypergeometric_pmf_sums;
        tc "hypergeometric mean" test_hypergeometric_mean;
        tc "hypergeometric q0 = Escape.q0" test_hypergeometric_q0_is_paper_q0;
        tc "hypergeometric sampler" test_hypergeometric_sampler;
        tc "geometric pmf sums" test_geometric_pmf_sums;
        tc "neg binomial pmf sums" test_neg_binomial_pmf_sums;
        tc "neg binomial poisson limit" test_neg_binomial_poisson_limit;
        tc "gamma dist cdf" test_gamma_dist_cdf_median;
        tc "normal quantile roundtrip" test_normal_cdf_quantile_roundtrip;
        tc "normal cdf values" test_normal_cdf_known ] );
    ( "stats.solver",
      [ tc "bisect sqrt2" test_bisect_sqrt;
        tc "brent sqrt2" test_brent_sqrt;
        tc "brent omega" test_brent_transcendental;
        tc "no bracket" test_solver_no_bracket;
        tc "find bracket" test_find_bracket;
        tc "golden section" test_golden_section;
        tc "newton cube root" test_newton ] );
    ( "stats.fit",
      [ tc "linear regression" test_linear_regression_exact;
        tc "through origin" test_linear_regression_through_origin;
        tc "fit_scalar" test_fit_scalar_recovers_parameter ] );
    ( "stats.summary",
      [ tc "mean/variance" test_summary_mean_var;
        tc "median/quantile" test_summary_median_quantile;
        tc "correlation" test_summary_correlation;
        tc "histogram" test_summary_histogram ] );
    ( "stats.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
