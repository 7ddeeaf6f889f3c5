type t = { defect_density : float; area : float; variance_ratio : float }

let create ~defect_density ~area ~variance_ratio =
  if not (0.0 <= defect_density) then invalid_arg "Yield_model.create: negative D0";
  if not (0.0 < area) then invalid_arg "Yield_model.create: nonpositive area";
  if not (0.0 <= variance_ratio) then invalid_arg "Yield_model.create: negative X";
  { defect_density; area; variance_ratio }

let lambda t = t.defect_density *. t.area

let poisson_yield t = exp (-.lambda t)

let stapper_yield t =
  let x = t.variance_ratio in
  if x = 0.0 then poisson_yield t
  else (1.0 +. (x *. lambda t)) ** (-1.0 /. x)

let murphy_yield t =
  let l = lambda t in
  if l = 0.0 then 1.0
  else begin
    let term = (1.0 -. exp (-.l)) /. l in
    term *. term
  end

let seeds_yield t = 1.0 /. (1.0 +. lambda t)

let clustering_alpha t =
  if t.variance_ratio = 0.0 then infinity else 1.0 /. t.variance_ratio

let defect_count_distribution t =
  if t.variance_ratio = 0.0 then Dist_kind.Poisson (lambda t)
  else Dist_kind.Neg_binomial { mean = lambda t; alpha = clustering_alpha t }

let solve_defect_density ~target_yield ~area ~variance_ratio =
  if not (0.0 < target_yield && target_yield < 1.0) then
    invalid_arg "Yield_model.solve_defect_density: yield outside (0,1)";
  (* Closed forms exist for both branches of Eq. 3. *)
  if variance_ratio = 0.0 then -.log target_yield /. area
  else begin
    let x = variance_ratio in
    ((target_yield ** -.x) -. 1.0) /. (x *. area)
  end
