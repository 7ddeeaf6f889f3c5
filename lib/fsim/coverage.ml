type engine = Serial | Parallel | Par of { domains : int }

type profile = {
  universe_size : int;
  pattern_count : int;
  first_detection : int option array;
}

let profile ?(engine = Parallel) ?cancel c faults patterns =
  let first_detection =
    match engine with
    | Serial -> Serial.run ?cancel c faults patterns
    | Parallel -> Ppsfp.run ?cancel c faults patterns
    | Par { domains } -> Par.run ?cancel ~domains c faults patterns
  in
  { universe_size = Array.length faults;
    pattern_count = Array.length patterns;
    first_detection }

type counts = {
  require : int;
  detections : int array;
  nth_profile : profile;
}

let detection_counts ?(engine = Parallel) ?cancel ~n c faults patterns =
  let detections, nth_detection =
    match engine with
    | Serial -> Serial.run_counts ?cancel ~n c faults patterns
    | Parallel -> Ppsfp.run_counts ?cancel ~n c faults patterns
    | Par { domains } -> Par.run_counts ?cancel ~domains ~n c faults patterns
  in
  { require = n;
    detections;
    nth_profile =
      { universe_size = Array.length faults;
        pattern_count = Array.length patterns;
        first_detection = nth_detection } }

let n_detect_profile cs = cs.nth_profile

let detected_count p =
  Array.fold_left
    (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
    0 p.first_detection

let final_coverage p =
  if p.universe_size = 0 then 0.0
  else float_of_int (detected_count p) /. float_of_int p.universe_size

let coverage_after p k =
  if p.universe_size = 0 then 0.0
  else begin
    let detected =
      Array.fold_left
        (fun acc d -> match d with Some i when i < k -> acc + 1 | Some _ | None -> acc)
        0 p.first_detection
    in
    float_of_int detected /. float_of_int p.universe_size
  end

let curve p =
  (* Histogram of first detections, then a running sum: O(F + P). *)
  let new_detections = Array.make (p.pattern_count + 1) 0 in
  Array.iter
    (function
      | Some i -> new_detections.(i + 1) <- new_detections.(i + 1) + 1
      | None -> ())
    p.first_detection;
  let total = float_of_int (max 1 p.universe_size) in
  let running = ref 0 in
  Array.init p.pattern_count (fun k ->
      running := !running + new_detections.(k + 1);
      (k + 1, float_of_int !running /. total))

let n_detect_coverage cs = final_coverage cs.nth_profile

let n_detect_coverage_after cs k = coverage_after cs.nth_profile k

let excluding p ~universe ~untestable =
  if Array.length universe <> p.universe_size then
    invalid_arg "Coverage.excluding: universe does not match profile";
  if Array.length untestable = 0 then p
  else begin
    let dropped = Hashtbl.create (Array.length untestable) in
    Array.iter (fun fault -> Hashtbl.replace dropped fault ()) untestable;
    let kept = ref [] in
    Array.iteri
      (fun i fault ->
        if not (Hashtbl.mem dropped fault) then kept := p.first_detection.(i) :: !kept)
      universe;
    let first_detection = Array.of_list (List.rev !kept) in
    { universe_size = Array.length first_detection;
      pattern_count = p.pattern_count;
      first_detection }
  end

let restrict p ~universe ~keep =
  if Array.length universe <> p.universe_size then
    invalid_arg "Coverage.restrict: universe does not match profile";
  let kept_set = Hashtbl.create (Array.length keep) in
  Array.iter (fun fault -> Hashtbl.replace kept_set fault ()) keep;
  let kept = ref [] in
  Array.iteri
    (fun i fault ->
      if Hashtbl.mem kept_set fault then kept := p.first_detection.(i) :: !kept)
    universe;
  let first_detection = Array.of_list (List.rev !kept) in
  { universe_size = Array.length first_detection;
    pattern_count = p.pattern_count;
    first_detection }

let undetected p faults =
  let misses = ref [] in
  Array.iteri
    (fun i d -> if d = None then misses := faults.(i) :: !misses)
    p.first_detection;
  List.rev !misses
