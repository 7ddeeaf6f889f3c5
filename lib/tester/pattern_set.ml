type t = {
  patterns : bool array array;
  profile : Fsim.Coverage.profile;
  n_detect : (int * Fsim.Coverage.profile) option;
}

let make patterns profile =
  if Array.length patterns <> profile.Fsim.Coverage.pattern_count then
    invalid_arg "Pattern_set.make: profile does not match pattern count";
  { patterns; profile; n_detect = None }

let of_simulation ?engine ?n_detect c faults patterns =
  let profile, nth =
    Fsim.Coverage.grade ?engine ~n:(Option.value n_detect ~default:1) c faults
      patterns
  in
  { patterns; profile; n_detect = Option.map (fun n -> (n, nth)) n_detect }

let pattern_count t = Array.length t.patterns

let coverage_after t k = Fsim.Coverage.coverage_after t.profile k

let final_coverage t = Fsim.Coverage.final_coverage t.profile

let first_fail t chip_faults =
  Array.fold_left
    (fun acc fault_index ->
      match t.profile.Fsim.Coverage.first_detection.(fault_index) with
      | None -> acc
      | Some k ->
        (match acc with Some best when best <= k -> acc | Some _ | None -> Some k))
    None chip_faults
