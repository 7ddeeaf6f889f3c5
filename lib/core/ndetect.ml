let check_epsilon epsilon =
  if not (0.0 <= epsilon && epsilon <= 1.0) then
    invalid_arg "Ndetect: epsilon outside [0,1]"

let fault_escape ~epsilon k =
  check_epsilon epsilon;
  if k < 0 then invalid_arg "Ndetect.fault_escape: negative detection count";
  if k = 0 then 1.0 else epsilon ** float_of_int k

let effective_coverage ~epsilon counts =
  check_epsilon epsilon;
  let total = Array.length counts in
  if total = 0 then 0.0
  else begin
    let screened = ref 0.0 in
    Array.iter
      (fun k -> screened := !screened +. (1.0 -. fault_escape ~epsilon k))
      counts;
    !screened /. float_of_int total
  end

let q0 ~epsilon ~faulty counts =
  Escape.q0_simple ~faulty ~coverage:(effective_coverage ~epsilon counts)

let ybg ~epsilon ~yield_ ~n0 counts =
  Reject.ybg ~yield_ ~n0 (effective_coverage ~epsilon counts)

let reject_rate ~epsilon ~yield_ ~n0 counts =
  Reject.reject_rate ~yield_ ~n0 (effective_coverage ~epsilon counts)
