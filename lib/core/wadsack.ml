let reject_rate ~yield_ f =
  if not (0.0 <= yield_ && yield_ <= 1.0) then invalid_arg "Wadsack: yield outside [0,1]";
  if not (0.0 <= f && f <= 1.0) then invalid_arg "Wadsack: coverage outside [0,1]";
  (1.0 -. yield_) *. (1.0 -. f)

let required_coverage ~yield_ ~reject =
  if not (0.0 < reject && reject < 1.0) then
    invalid_arg "Wadsack.required_coverage: reject outside (0,1)";
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Wadsack.required_coverage: yield outside [0,1]";
  if 1.0 -. yield_ <= reject then Some 0.0
  else Some (1.0 -. (reject /. (1.0 -. yield_)))

let reject_ratio_vs_agrawal ~yield_ ~n0 f =
  let ours = Reject.reject_rate ~yield_ ~n0 f in
  if ours = 0.0 then infinity else reject_rate ~yield_ f /. ours
