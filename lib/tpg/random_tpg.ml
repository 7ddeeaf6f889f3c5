let uniform rng (c : Circuit.Netlist.t) ~count =
  let width = Array.length c.inputs in
  Array.init count (fun _ -> Array.init width (fun _ -> Stats.Rng.bool rng))

let weighted rng (c : Circuit.Netlist.t) ~weights ~count =
  let width = Array.length c.inputs in
  if Array.length weights <> width then
    invalid_arg "Random_tpg.weighted: weight vector width mismatch";
  Array.init count (fun _ ->
      Array.init width (fun i -> Stats.Rng.bernoulli rng weights.(i)))

let random_walk rng (c : Circuit.Netlist.t) ~count ?(flips = 1) () =
  if count <= 0 then invalid_arg "Random_tpg.random_walk: nonpositive count";
  if flips < 1 then invalid_arg "Random_tpg.random_walk: flips must be >= 1";
  let width = Array.length c.inputs in
  let current = Array.init width (fun _ -> Stats.Rng.bool rng) in
  Array.init count (fun i ->
      if i > 0 then
        for _ = 1 to flips do
          let j = Stats.Rng.int rng width in
          current.(j) <- not current.(j)
        done;
      Array.copy current)

let until_coverage rng c faults ~target ~max_patterns =
  if not (0.0 <= target && target <= 1.0) then
    invalid_arg "Random_tpg.until_coverage: target outside [0,1]";
  let total = Array.length faults in
  let first_detection = Array.make total None in
  let detected = ref 0 in
  let alive = ref (Array.init total (fun i -> i)) in
  let chunks = ref [] in
  let applied = ref 0 in
  (* Incremental: each new block is fault-simulated against the still
     undetected faults only. *)
  while
    !applied < max_patterns
    && float_of_int !detected < target *. float_of_int (max 1 total)
    && Array.length !alive > 0
  do
    let count = min 64 (max_patterns - !applied) in
    let block = uniform rng c ~count in
    let subset = Array.map (fun i -> faults.(i)) !alive in
    let results = Fsim.Ppsfp.run c subset block in
    let survivors = ref [] in
    Array.iteri
      (fun k d ->
        match d with
        | Some offset ->
          first_detection.(!alive.(k)) <- Some (!applied + offset);
          incr detected
        | None -> survivors := !alive.(k) :: !survivors)
      results;
    alive := Array.of_list (List.rev !survivors);
    chunks := block :: !chunks;
    applied := !applied + count
  done;
  let patterns = Array.concat (List.rev !chunks) in
  let profile =
    { Fsim.Coverage.universe_size = total;
      pattern_count = Array.length patterns;
      first_detection }
  in
  (patterns, profile)
