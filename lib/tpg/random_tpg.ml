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
  let st = Fsim.Coverage.state ~n:1 total in
  let grader = Fsim.Coverage.grader c faults in
  let detected = ref 0 in
  let chunks = ref [] in
  let applied = ref 0 in
  while
    !applied < max_patterns
    && float_of_int !detected < target *. float_of_int (max 1 total)
    && !detected < total
  do
    let count = min 64 (max_patterns - !applied) in
    let block = uniform rng c ~count in
    detected := !detected + Fsim.Coverage.extend_with grader st ~offset:!applied block;
    chunks := block :: !chunks;
    applied := !applied + count
  done;
  let patterns = Array.concat (List.rev !chunks) in
  (patterns, fst (Fsim.Coverage.profiles st ~pattern_count:(Array.length patterns)))
