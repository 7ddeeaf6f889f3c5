type t = {
  yield_ : float;
  n0 : float;
  pattern_cost : float;
  patterns_per_decade : float;
  escape_cost : float;
}

let create ~yield_ ~n0 ~pattern_cost ~patterns_per_decade ~escape_cost =
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Economics.create: yield outside [0,1]";
  if not (1.0 <= n0) then invalid_arg "Economics.create: n0 must be >= 1";
  if
    not (0.0 <= pattern_cost && 0.0 < patterns_per_decade && 0.0 <= escape_cost)
  then invalid_arg "Economics.create: negative cost";
  { yield_; n0; pattern_cost; patterns_per_decade; escape_cost }

let test_cost t f =
  if not (0.0 <= f && f < 1.0) then
    invalid_arg "Economics.test_cost: coverage outside [0,1)";
  t.pattern_cost *. t.patterns_per_decade *. -.log1p (-.f)

let escape_cost_per_chip t f =
  t.escape_cost *. Reject.reject_rate ~yield_:t.yield_ ~n0:t.n0 f

let total_cost t f = test_cost t f +. escape_cost_per_chip t f

let optimal_coverage t =
  (* The objective is smooth and unimodal on [0, 1): test cost is convex
     increasing, escape cost convex decreasing. *)
  Stats.Solver.golden_section_min ~tol:1e-10 ~f:(total_cost t) ~lo:0.0
    ~hi:0.999999 ()

let sweep t ~coverages =
  Array.map
    (fun f -> (f, test_cost t f, escape_cost_per_chip t f, total_cost t f))
    coverages
