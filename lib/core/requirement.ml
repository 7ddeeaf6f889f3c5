let required_coverage ~yield_ ~n0 ~reject =
  if not (0.0 < reject && reject < 1.0) then
    invalid_arg "Requirement.required_coverage: reject outside (0,1)";
  let r f = Reject.reject_rate ~yield_ ~n0 f in
  if r 0.0 <= reject then Some 0.0
  else if r 1.0 > reject then None
  else
    (* r is continuous and strictly decreasing from 1-y to 0. *)
    Some (Stats.Solver.brent ~tol:1e-10 ~f:(fun f -> r f -. reject) ~lo:0.0 ~hi:1.0 ())

let coverage_versus_yield ~reject ~n0 ~yields =
  Array.map
    (fun y ->
      let f =
        match required_coverage ~yield_:y ~n0 ~reject with
        | Some f -> f
        | None -> 1.0
      in
      (y, f))
    yields

let sensitivity_to_n0 ~yield_ ~reject ~n0_values =
  Array.map
    (fun n0 ->
      let f =
        match required_coverage ~yield_ ~n0 ~reject with
        | Some f -> f
        | None -> 1.0
      in
      (n0, f))
    n0_values
