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

let extend ?engine c faults ~first_detection ~offset patterns =
  let alive = ref [] in
  for i = Array.length faults - 1 downto 0 do
    if first_detection.(i) = None then alive := i :: !alive
  done;
  let alive = Array.of_list !alive in
  if Array.length alive = 0 then 0
  else begin
    let graded =
      (profile ?engine c (Array.map (Array.get faults) alive) patterns)
        .first_detection
    in
    let found = ref 0 in
    Array.iteri
      (fun k d ->
        match d with
        | Some j ->
          first_detection.(alive.(k)) <- Some (offset + j);
          incr found
        | None -> ())
      graded;
    !found
  end

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

(* The entries of [p] whose fault is in [faults] exactly when [member]
   holds. *)
let select op c p ~universe ~faults ~member =
  if Array.length universe <> p.universe_size then
    invalid_arg (Printf.sprintf "Coverage.%s: universe does not match profile" op);
  let marks = Faults.Universe.mark c faults in
  let kept = ref [] in
  Array.iteri
    (fun i fault ->
      if marks.(Faults.Fault.id c fault) = member then
        kept := p.first_detection.(i) :: !kept)
    universe;
  let first_detection = Array.of_list (List.rev !kept) in
  { universe_size = Array.length first_detection;
    pattern_count = p.pattern_count;
    first_detection }

let excluding c p ~universe ~untestable =
  select "excluding" c p ~universe ~faults:untestable ~member:false

let restrict c p ~universe ~keep =
  select "restrict" c p ~universe ~faults:keep ~member:true

let undetected p faults =
  let misses = ref [] in
  Array.iteri
    (fun i d -> if d = None then misses := faults.(i) :: !misses)
    p.first_detection;
  List.rev !misses
