let check ~yield_ f =
  if not (0.0 < yield_ && yield_ <= 1.0) then
    invalid_arg "Williams_brown: yield outside (0,1]";
  if not (0.0 <= f && f <= 1.0) then invalid_arg "Williams_brown: coverage outside [0,1]"

let defect_level ~yield_ f =
  check ~yield_ f;
  1.0 -. (yield_ ** (1.0 -. f))

let required_coverage ~yield_ ~defect_level =
  if not (0.0 < defect_level && defect_level < 1.0) then
    invalid_arg "Williams_brown.required_coverage: defect level outside (0,1)";
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Williams_brown.required_coverage: yield outside [0,1]";
  if yield_ = 1.0 then None
  else if 1.0 -. yield_ <= defect_level then Some 0.0
  else
    (* At y = 0, ln y = -infinity and the quotient is +0: f = 1, the
       formula's y -> 0 limit. *)
    Some (1.0 -. (log1p (-.defect_level) /. log yield_))

let implied_n0 ~yield_ =
  if not (0.0 < yield_ && yield_ < 1.0) then
    invalid_arg "Williams_brown.implied_n0: yield outside (0,1)";
  -.log yield_ /. (1.0 -. yield_)
