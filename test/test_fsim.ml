(* Tests for the fault simulators: serial, PPSFP, coverage bookkeeping,
   and the multiple-fault machine. *)

module F = Faults.Fault
module N = Circuit.Netlist

(* Brute-force oracle for a stem fault: per-pattern faulty simulation
   via the reference simulator with an override. *)
let stem_detected_oracle c node polarity pattern =
  let forced = F.polarity_bit polarity in
  let good = Logicsim.Refsim.eval c pattern in
  let faulty = Logicsim.Refsim.eval_with_overrides c ~overrides:[ (node, forced) ] pattern in
  Array.exists (fun out -> good.(out) <> faulty.(out)) c.N.outputs

let test_serial_matches_oracle_on_stems () =
  let c = Circuit.Generators.c17 () in
  let patterns = Oracle.exhaustive_patterns 5 in
  for node = 0 to N.num_nodes c - 1 do
    List.iter
      (fun polarity ->
        let fault = { F.site = F.Stem node; polarity } in
        let results = Fsim.Serial.run c [| fault |] patterns in
        let expected =
          Array.to_list patterns
          |> List.mapi (fun i p -> (i, stem_detected_oracle c node polarity p))
          |> List.find_opt (fun (_, d) -> d)
          |> Option.map fst
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s first detection" (F.to_string c fault))
          true
          (results.(0) = expected))
      [ F.Stuck_at_0; F.Stuck_at_1 ]
  done

let test_ppsfp_equals_serial_c17 () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  Alcotest.(check bool) "identical results" true
    (Fsim.Serial.run c universe patterns = Fsim.Ppsfp.run c universe patterns)

let check_ppsfp_equals_serial c patterns =
  let universe = Faults.Universe.all c in
  let serial = Fsim.Serial.run c universe patterns in
  let ppsfp = Fsim.Ppsfp.run c universe patterns in
  Array.iteri
    (fun i a ->
      if a <> ppsfp.(i) then
        Alcotest.failf "disagreement on %s" (F.to_string c universe.(i)))
    serial

let test_ppsfp_equals_serial_random () =
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:10 ~gates:150 ~outputs:8 ~seed in
      check_ppsfp_equals_serial c
        (Oracle.random_patterns ~seed:(seed * 11) ~count:100 c))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:9 ~gates:120 ~outputs:6 ~seed in
      check_ppsfp_equals_serial c
        (Oracle.random_patterns ~seed:(seed * 3) ~count:80 c))
    [ 5; 6; 7 ];
  (* Uniform and correlated random-walk streams, the latter shaped like
     the lot pipeline's functional prelude. *)
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:9 ~gates:120 ~outputs:6 ~seed in
      let rng = Stats.Rng.create ~seed:(seed * 5) () in
      let rand = Tpg.Random_tpg.uniform rng c ~count:70 in
      let walk = Tpg.Random_tpg.random_walk rng c ~count:70 () in
      check_ppsfp_equals_serial c rand;
      check_ppsfp_equals_serial c walk)
    [ 8; 9; 10 ]

let test_ppsfp_equals_serial_arithmetic () =
  let c = Circuit.Generators.array_multiplier ~bits:4 in
  check_ppsfp_equals_serial c (Oracle.random_patterns ~seed:9 ~count:96 c);
  let alu = Circuit.Generators.alu ~bits:3 in
  check_ppsfp_equals_serial alu (Oracle.random_patterns ~seed:17 ~count:64 alu);
  (* Faults detected early in a walk must not be re-reported nor
     disturb later detections. *)
  let rng = Stats.Rng.create ~seed:12 () in
  check_ppsfp_equals_serial alu (Tpg.Random_tpg.random_walk rng alu ~count:120 ())

let test_c17_full_coverage_exhaustive () =
  (* c17 is irredundant: exhaustive patterns detect everything. *)
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let profile = Fsim.Coverage.profile c universe (Oracle.exhaustive_patterns 5) in
  Alcotest.(check int) "all detected" (Array.length universe)
    (Fsim.Coverage.detected_count profile);
  Alcotest.(check (float 1e-12)) "coverage 1" 1.0 (Fsim.Coverage.final_coverage profile)

let test_first_detection_is_minimal () =
  (* The reported index must be the first detecting pattern: re-running
     with the pattern prefix up to (but excluding) it finds nothing. *)
  let c = Circuit.Generators.ripple_carry_adder ~bits:3 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:3 ~count:40 c in
  let results = Fsim.Ppsfp.run c universe patterns in
  Array.iteri
    (fun i result ->
      match result with
      | None -> ()
      | Some k ->
        if k > 0 && i mod 7 = 0 then begin
          let prefix = Array.sub patterns 0 k in
          let again = Fsim.Ppsfp.run c [| universe.(i) |] prefix in
          Alcotest.(check bool) "undetected by prefix" true (again.(0) = None);
          let upto = Array.sub patterns 0 (k + 1) in
          let again = Fsim.Ppsfp.run c [| universe.(i) |] upto in
          Alcotest.(check bool) "detected at k" true (again.(0) = Some k)
        end)
    results

let test_coverage_curve_monotone () =
  let c = Circuit.Generators.alu ~bits:4 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:21 ~count:80 c in
  let profile = Fsim.Coverage.profile c universe patterns in
  let curve = Fsim.Coverage.curve profile in
  Alcotest.(check int) "one point per pattern" 80 (Array.length curve);
  Array.iteri
    (fun i (k, f) ->
      Alcotest.(check int) "pattern index" (i + 1) k;
      Alcotest.(check bool) "coverage in [0,1]" true (f >= 0.0 && f <= 1.0);
      if i > 0 then
        Alcotest.(check bool) "monotone" true (snd curve.(i - 1) <= f))
    curve;
  Alcotest.(check (float 1e-12)) "curve end = final coverage"
    (Fsim.Coverage.final_coverage profile)
    (snd curve.(79))

let test_coverage_after_consistent () =
  let c = Circuit.Generators.parity_tree ~bits:8 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:5 ~count:50 c in
  let profile = Fsim.Coverage.profile c universe patterns in
  let curve = Fsim.Coverage.curve profile in
  Array.iter
    (fun (k, f) ->
      Alcotest.(check (float 1e-12)) "coverage_after agrees" f
        (Fsim.Coverage.coverage_after profile k))
    curve

let test_undetected_listing () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  (* One constant pattern cannot detect everything. *)
  let profile = Fsim.Coverage.profile c universe [| Array.make 5 false |] in
  let missing = Fsim.Coverage.undetected profile universe in
  Alcotest.(check int) "count consistent"
    (Array.length universe - Fsim.Coverage.detected_count profile)
    (List.length missing)

(* ----------------------------- multicore ---------------------------- *)

let test_par_equals_ppsfp_c17 () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  let reference = Fsim.Ppsfp.run c universe patterns in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains" domains)
        true
        (snd (Fsim.Par.run_counts ~domains ~n:1 c universe patterns) = reference))
    [ 1; 2; 3; 8 ]

let test_par_equals_ppsfp_odd_pattern_counts () =
  (* Pattern counts off the 64 boundary exercise the partial-block live
     mask; domain counts above the shard-able fault count exercise the
     clamp. *)
  List.iter
    (fun count ->
      let c =
        Circuit.Generators.random_circuit ~inputs:10 ~gates:180 ~outputs:8
          ~seed:(count + 1)
      in
      let universe = Faults.Universe.all c in
      let patterns = Oracle.random_patterns ~seed:(count * 7 + 1) ~count c in
      let reference = Fsim.Ppsfp.run c universe patterns in
      List.iter
        (fun domains ->
          if snd (Fsim.Par.run_counts ~domains ~n:1 c universe patterns) <> reference
          then
            Alcotest.failf "divergence at %d patterns, %d domains" count domains)
        [ 1; 2; 4; 5; 8 ])
    [ 1; 63; 65; 100; 130 ]

let test_par_collapsed_universe_bit_identical () =
  let c = Circuit.Generators.random_circuit ~inputs:32 ~gates:2000 ~outputs:24 ~seed:3 in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let universe = Faults.Collapse.representatives classes in
  let patterns = Oracle.random_patterns ~seed:8 ~count:130 c in
  Alcotest.(check bool) "bit-identical on 2k gates / 4 domains" true
    (snd (Fsim.Par.run_counts ~domains:4 ~n:1 c universe patterns)
    = Fsim.Ppsfp.run c universe patterns)

let test_par_via_coverage_engine () =
  let c = Circuit.Generators.parity_tree ~bits:6 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:23 ~count:50 c in
  let reference = Fsim.Coverage.profile ~engine:Fsim.Coverage.Serial c universe patterns in
  List.iter
    (fun engine ->
      Alcotest.(check bool) "profiles equal" true
        ((Fsim.Coverage.profile ~engine c universe patterns).Fsim.Coverage.first_detection
        = reference.Fsim.Coverage.first_detection))
    [ Fsim.Coverage.Parallel; Fsim.Coverage.Par { domains = 3 } ]

let test_par_empty_universe () =
  let c = Circuit.Generators.c17 () in
  Alcotest.(check int) "no faults, no results" 0
    (Array.length
       (snd (Fsim.Par.run_counts ~domains:4 ~n:1 c [||] (Oracle.exhaustive_patterns 5))))

let test_lowest_set_bit_matches_naive () =
  let naive w =
    let rec loop i = if Logicsim.Packed.bit w i then i else loop (i + 1) in
    loop 0
  in
  for i = 0 to 63 do
    let w = Int64.shift_left 1L i in
    Alcotest.(check int) "single bit" i (Fsim.Ppsfp.lowest_set_bit w)
  done;
  let rng = Stats.Rng.create ~seed:77 () in
  for _ = 1 to 10_000 do
    let w = Stats.Rng.bits64 rng in
    if w <> 0L then
      Alcotest.(check int) "random word" (naive w) (Fsim.Ppsfp.lowest_set_bit w)
  done;
  Alcotest.(check bool) "zero word rejected" true
    (try
       ignore (Fsim.Ppsfp.lowest_set_bit 0L);
       false
     with Invalid_argument _ -> true)

(* ------------------------------ n-detect ----------------------------- *)

let test_popcount_matches_naive () =
  let naive w =
    let count = ref 0 in
    for i = 0 to 63 do
      if Logicsim.Packed.bit w i then incr count
    done;
    !count
  in
  Alcotest.(check int) "zero word" 0 (Fsim.Ppsfp.popcount 0L);
  Alcotest.(check int) "all ones" 64 (Fsim.Ppsfp.popcount (-1L));
  for i = 0 to 63 do
    Alcotest.(check int) "single bit" 1 (Fsim.Ppsfp.popcount (Int64.shift_left 1L i))
  done;
  let rng = Stats.Rng.create ~seed:78 () in
  for _ = 1 to 10_000 do
    let w = Stats.Rng.bits64 rng in
    Alcotest.(check int) "random word" (naive w) (Fsim.Ppsfp.popcount w)
  done

let test_nth_set_bit_matches_naive () =
  let naive w k =
    let found = ref 0 and answer = ref (-1) in
    for i = 0 to 63 do
      if !answer < 0 && Logicsim.Packed.bit w i then begin
        incr found;
        if !found = k then answer := i
      end
    done;
    !answer
  in
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check int) "nth 1 = lowest" 0 (Fsim.Ppsfp.nth_set_bit 1L 1);
  Alcotest.(check bool) "k = 0 rejected" true
    (rejects (fun () -> Fsim.Ppsfp.nth_set_bit (-1L) 0));
  let rng = Stats.Rng.create ~seed:79 () in
  for _ = 1 to 2_000 do
    let w = Stats.Rng.bits64 rng in
    let total = Fsim.Ppsfp.popcount w in
    for k = 1 to min total 5 do
      Alcotest.(check int) "random word" (naive w k) (Fsim.Ppsfp.nth_set_bit w k)
    done;
    (* Asking past the population must be rejected, not wrap. *)
    Alcotest.(check bool) "too few set bits rejected" true
      (rejects (fun () -> Fsim.Ppsfp.nth_set_bit w (total + 1)))
  done

let test_ndetect_n1_equals_first_detection () =
  (* The n = 1 drop-after-n run must be bit-identical to the ordinary
     first-detection run: same indices, counts saturated at one. *)
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:10 ~gates:150 ~outputs:8 ~seed in
      let universe = Faults.Universe.all c in
      let patterns = Oracle.random_patterns ~seed:(seed * 13) ~count:100 c in
      let reference = Fsim.Ppsfp.run c universe patterns in
      let detections, nth = Oracle.run_counts ~n:1 c universe patterns in
      Alcotest.(check bool) "indices bit-identical" true (nth = reference);
      Array.iteri
        (fun i d ->
          Alcotest.(check int) "count saturates at 1"
            (if reference.(i) = None then 0 else 1)
            d)
        detections)
    [ 1; 2; 3 ]

let test_ndetect_engines_bit_identical () =
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:10 ~gates:150 ~outputs:8 ~seed in
      let universe = Faults.Universe.all c in
      let patterns = Oracle.random_patterns ~seed:(seed * 17) ~count:100 c in
      List.iter
        (fun n ->
          let reference = Oracle.run_counts ~n c universe patterns in
          if Fsim.Serial.run_counts ~n c universe patterns <> reference then
            Alcotest.failf "serial diverges at n=%d seed=%d" n seed;
          List.iter
            (fun domains ->
              if Fsim.Par.run_counts ~domains ~n c universe patterns <> reference
              then Alcotest.failf "par(%d) diverges at n=%d seed=%d" domains n seed)
            [ 1; 2; 3; 8 ])
        [ 1; 2; 4; 8 ])
    [ 4; 5 ]

let test_ndetect_exhaustive_oracle () =
  (* c17 exhaustively: per fault, collect every detecting pattern by
     single-pattern simulation; the saturated count and the n-th
     detection index then follow by definition. *)
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  let detecting fault =
    Array.to_list patterns
    |> List.mapi (fun i p -> (i, (Fsim.Serial.run c [| fault |] [| p |]).(0) = Some 0))
    |> List.filter_map (fun (i, d) -> if d then Some i else None)
  in
  let oracle = Array.map detecting universe in
  List.iter
    (fun n ->
      let detections, nth = Oracle.run_counts ~n c universe patterns in
      Array.iteri
        (fun j fault ->
          let dets = oracle.(j) in
          Alcotest.(check int)
            (Printf.sprintf "%s count at n=%d" (F.to_string c fault) n)
            (min n (List.length dets))
            detections.(j);
          Alcotest.(check bool)
            (Printf.sprintf "%s index at n=%d" (F.to_string c fault) n)
            true
            (nth.(j) = List.nth_opt dets (n - 1)))
        universe)
    [ 1; 2; 3; 4 ]

let test_ndetect_coverage_monotone_in_n () =
  let c = Circuit.Generators.alu ~bits:3 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:61 ~count:96 c in
  let graded =
    List.map (fun n -> Fsim.Coverage.grade ~n c universe patterns) [ 1; 2; 4; 8 ]
  in
  (* Demanding more detections can only push coverage down, at every
     point of the curve, and leaves the first detections alone. *)
  let rec pairwise = function
    | (first_a, a) :: ((first_b, b) :: _ as rest) ->
      Alcotest.(check bool) "first detections independent of n" true
        (first_a = first_b);
      for k = 0 to Array.length patterns do
        Alcotest.(check bool) "curve non-increasing in n" true
          (Fsim.Coverage.coverage_after b k
          <= Fsim.Coverage.coverage_after a k +. 1e-12)
      done;
      pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise graded;
  (* At n = 1 both views are the ordinary profile. *)
  let profile = Fsim.Coverage.profile c universe patterns in
  let first1, nth1 = List.hd graded in
  Alcotest.(check bool) "n=1 profiles equal" true
    (first1 = profile && nth1 = profile)

let test_ndetect_via_coverage_engine () =
  (* Every engine choice must agree through the grade dispatcher. *)
  let c = Circuit.Generators.parity_tree ~bits:6 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:23 ~count:50 c in
  let reference = Fsim.Coverage.grade ~n:3 c universe patterns in
  List.iter
    (fun engine ->
      Alcotest.(check bool) "profiles equal" true
        (Fsim.Coverage.grade ~engine ~n:3 c universe patterns = reference))
    [ Fsim.Coverage.Serial; Fsim.Coverage.Parallel; Fsim.Coverage.Par { domains = 3 } ]

let test_ndetect_invalid_n_rejected () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  List.iter
    (fun f ->
      Alcotest.(check bool) "n < 1 rejected" true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [ (fun () -> ignore (Oracle.run_counts ~n:0 c universe patterns));
      (fun () -> ignore (Fsim.Serial.run_counts ~n:0 c universe patterns));
      (fun () -> ignore (Fsim.Par.run_counts ~n:0 c universe patterns));
      (fun () -> ignore (Fsim.Coverage.grade ~n:(-2) c universe patterns)) ]

(* ------------------------------- kernel ------------------------------ *)

(* Every gate kind and fanin width the packed kernel handles: BUF, NOT,
   both constants, 3- and 4-input AND/NAND/OR/NOR/XOR/XNOR, a stem
   that reconverges, and a primary output that also feeds logic. *)
let every_kind_circuit () =
  let b = N.Builder.create ~name:"every_kind" in
  let i = Array.init 7 (fun k -> N.Builder.add_input b (Printf.sprintf "i%d" k)) in
  let zero = N.Builder.add_const b "zero" false in
  let one = N.Builder.add_const b "one" true in
  let g kind fanins = N.Builder.add_gate b kind fanins in
  let buf = g Circuit.Gate.Buf [ i.(0) ] in
  let inv = g Circuit.Gate.Not [ i.(1) ] in
  let and3 = g Circuit.Gate.And [ buf; inv; i.(2) ] in
  let nand4 = g Circuit.Gate.Nand [ i.(2); i.(3); i.(4); one ] in
  let or3 = g Circuit.Gate.Or [ i.(3); zero; inv ] in
  let nor4 = g Circuit.Gate.Nor [ and3; i.(5); i.(6); zero ] in
  let xor3 = g Circuit.Gate.Xor [ nand4; or3; i.(0) ] in
  let xnor4 = g Circuit.Gate.Xnor [ xor3; nor4; buf; i.(6) ] in
  (* [xor3] is an output and also feeds [xnor4] and [and4]; [buf] and
     [inv] reconverge at [and4]. *)
  let and4 = g Circuit.Gate.And [ xor3; buf; inv; i.(4) ] in
  let or4 = g Circuit.Gate.Or [ and4; xnor4; nand4; i.(5) ] in
  let nand3 = g Circuit.Gate.Nand [ or4; one; i.(1) ] in
  let xnor3 = g Circuit.Gate.Xnor [ nand3; zero; and3 ] in
  List.iter (N.Builder.mark_output b) [ xor3; or4; xnor3; nor4; one ];
  N.Builder.build b

(* Fanout-free-region corners the random generators never emit:
   duplicated fanins ([Xor [a; a]], [And [b; b; c]]), a four-gate chain
   of single fanouts ending in a stem, an output that also has exactly
   one fanout, and two dangling gates, one of them at the end of a
   single-fanout path. *)
let ffr_corner_circuit () =
  let b = N.Builder.create ~name:"ffr_corners" in
  let i = Array.init 6 (fun k -> N.Builder.add_input b (Printf.sprintf "i%d" k)) in
  let g kind fanins = N.Builder.add_gate b kind fanins in
  let twin = g Circuit.Gate.Xor [ i.(0); i.(0) ] in
  let triple = g Circuit.Gate.And [ i.(1); i.(1); i.(2) ] in
  (* [triple] -> [c1] -> [c2] -> [c3] -> [c4]; [c4] feeds two gates. *)
  let c1 = g Circuit.Gate.Nand [ triple; i.(3) ] in
  let c2 = g Circuit.Gate.Not [ c1 ] in
  let c3 = g Circuit.Gate.Or [ c2; i.(4) ] in
  let c4 = g Circuit.Gate.Xnor [ c3; i.(5) ] in
  (* [lone] is an output and feeds only [h2]. *)
  let lone = g Circuit.Gate.Or [ twin; i.(1) ] in
  let h1 = g Circuit.Gate.Xor [ c4; i.(0) ] in
  let h2 = g Circuit.Gate.Nor [ lone; c4 ] in
  let feed = g Circuit.Gate.Not [ i.(5) ] in
  ignore (g Circuit.Gate.And [ feed; i.(2) ]);
  ignore (g Circuit.Gate.Nand [ i.(3); i.(4) ]);
  List.iter (N.Builder.mark_output b) [ lone; h1; h2 ];
  N.Builder.build b

let check_engines_agree ~domains ~ns name c universe patterns =
  let serial = Fsim.Serial.run c universe patterns in
  Alcotest.(check bool) (name ^ ": ppsfp = serial") true
    (Fsim.Ppsfp.run c universe patterns = serial);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: par(%d) = serial" name domains)
        true
        (snd (Fsim.Par.run_counts ~domains ~n:1 c universe patterns) = serial))
    domains;
  List.iter
    (fun n ->
      let reference = Fsim.Serial.run_counts ~n c universe patterns in
      Alcotest.(check bool)
        (Printf.sprintf "%s: ppsfp counts = serial at n=%d" name n)
        true
        (Oracle.run_counts ~n c universe patterns = reference);
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: par(%d) counts = serial at n=%d" name domains n)
            true
            (Fsim.Par.run_counts ~domains ~n c universe patterns = reference))
        domains)
    ns

let test_kernel_every_gate_kind () =
  let check = check_engines_agree ~domains:[ 1; 2; 3; 5 ] ~ns:[ 1; 3; 64 ] in
  let c = every_kind_circuit () in
  let universe = Faults.Universe.all c in
  let exhaustive = Oracle.exhaustive_patterns 7 in
  check "exhaustive" c universe exhaustive;
  (* 100 patterns: the last block is partial. *)
  check "100 patterns" c universe
    (Array.init 100 (fun k -> exhaustive.((k * 37) mod 128)));
  let c = ffr_corner_circuit () in
  let exhaustive = Oracle.exhaustive_patterns 6 in
  List.iter
    (fun (name, patterns) ->
      check_engines_agree ~domains:[ 1; 2; 3; 8 ] ~ns:[ 1; 2; 3; 4 ] name c
        (Faults.Universe.all c) patterns)
    [ ("ffr corners exhaustive", exhaustive);
      ("ffr corners 100 patterns",
       Array.init 100 (fun k -> exhaustive.((k * 37) mod 64))) ]

let test_kernel_lsi_chip_n64 () =
  let c = Circuit.Generators.lsi_chip ~seed:1981 ~scale:4 () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let patterns = Oracle.random_patterns ~seed:64 ~count:512 c in
  let reference = Fsim.Serial.run_counts ~n:64 c universe patterns in
  Alcotest.(check bool) "ppsfp = serial at n=64" true
    (Oracle.run_counts ~n:64 c universe patterns = reference);
  Alcotest.(check bool) "par(2) = serial at n=64" true
    (Fsim.Par.run_counts ~domains:2 ~n:64 c universe patterns = reference)

(* One malformed fault, hidden among good ones, must stop every engine
   with the same typed error before any grading. *)
let test_malformed_fault_rejected () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  let gate =
    Array.to_list c.N.topo_order
    |> List.find (fun id -> Array.length c.N.fanins.(id) = 2)
  in
  let malformed =
    [ F.{ site = Stem (N.num_nodes c); polarity = Stuck_at_0 };
      F.{ site = Stem (-1); polarity = Stuck_at_1 };
      F.{ site = Branch { gate = c.N.inputs.(0); pin = 0 }; polarity = Stuck_at_0 };
      F.{ site = Branch { gate; pin = 2 }; polarity = Stuck_at_1 };
      F.{ site = Branch { gate; pin = -1 }; polarity = Stuck_at_0 };
      F.{ site = Branch { gate = N.num_nodes c + 3; pin = 0 }; polarity = Stuck_at_1 } ]
  in
  let error f = try ignore (f ()); None with Invalid_argument msg -> Some msg in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      List.iter
        (fun fault ->
          let faults = Array.append universe [| fault |] in
          let expected = error (fun () -> F.check c fault) in
          Alcotest.(check bool) "check rejects it" true (expected <> None);
          List.iter
            (fun (engine, run) ->
              Alcotest.(check (option string)) engine expected (error run))
            [ ("serial", fun () -> ignore (Fsim.Serial.run c faults patterns));
              ("serial counts", fun () ->
                 ignore (Fsim.Serial.run_counts ~n:2 c faults patterns));
              ("ppsfp", fun () -> ignore (Fsim.Ppsfp.run c faults patterns));
              ("ppsfp counts", fun () ->
                 ignore (Oracle.run_counts ~n:2 c faults patterns));
              ("par", fun () ->
                 ignore (Fsim.Par.run_counts ~domains:3 ~n:1 c faults patterns));
              ("par counts", fun () ->
                 ignore (Fsim.Par.run_counts ~domains:3 ~n:2 c faults patterns)) ])
        malformed;
      Alcotest.(check (option (float 0.0))) "par spent no shard retries" None
        (Obs.Metrics.value "fsim.par.shard_retries");
      Alcotest.(check (option (float 0.0))) "nor a fallback" None
        (Obs.Metrics.value "fsim.par.shard_fallbacks"))

(* Fault x 64-pattern-block evaluations implied by a drop-on-detection
   result (the benchmark's count). *)
let fault_blocks ~patterns detect =
  let blocks = (patterns + 63) / 64 in
  Array.fold_left
    (fun acc d -> acc + match d with Some p -> (p / 64) + 1 | None -> blocks)
    0 detect

let test_kernel_allocation_guard () =
  let c = Circuit.Generators.lsi_chip ~seed:1981 ~scale:6 () in
  let universe =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let patterns = Oracle.random_patterns ~seed:6 ~count:512 c in
  let per_fault_block name grade =
    let before = Gc.minor_words () in
    let detect = grade () in
    let words = Gc.minor_words () -. before in
    let per = words /. float_of_int (fault_blocks ~patterns:512 detect) in
    if per > 64.0 then
      Alcotest.failf "%s allocates %.1f minor words per fault-block (> 64)" name per
  in
  per_fault_block "Ppsfp.run" (fun () -> Fsim.Ppsfp.run c universe patterns);
  per_fault_block "Ppsfp.run_counts ~n:8" (fun () ->
      snd (Oracle.run_counts ~n:8 c universe patterns));
  per_fault_block "Par.run_counts ~domains:1 ~n:8" (fun () ->
      snd (Fsim.Par.run_counts ~domains:1 ~n:8 c universe patterns))

(* ------------------------------- stafan ------------------------------ *)

let test_stafan_controllabilities () =
  (* On exhaustive patterns of c17, input C1 is exactly 1/2. *)
  let c = Circuit.Generators.c17 () in
  let st = Fsim.Stafan.analyze c (Oracle.exhaustive_patterns 5) in
  Array.iter
    (fun id ->
      Alcotest.(check (float 1e-9)) "C1(PI) = 0.5" 0.5
        (Fsim.Stafan.controllability_one st id))
    c.N.inputs

let test_stafan_po_observability () =
  let c = Circuit.Generators.c17 () in
  let st = Fsim.Stafan.analyze c (Oracle.exhaustive_patterns 5) in
  Array.iter
    (fun out ->
      Alcotest.(check (float 1e-9)) "B(PO) = 1" 1.0 (Fsim.Stafan.observability st out))
    c.N.outputs

let test_stafan_detection_probability_bounds () =
  let c = Circuit.Generators.alu ~bits:3 in
  let rng = Stats.Rng.create ~seed:5 () in
  let patterns = Tpg.Random_tpg.uniform rng c ~count:64 in
  let st = Fsim.Stafan.analyze c patterns in
  Array.iter
    (fun fault ->
      let d = Fsim.Stafan.detection_probability st fault in
      Alcotest.(check bool) "d in [0,1]" true (d >= -1e-9 && d <= 1.0 +. 1e-9))
    (Faults.Universe.all c)

let test_stafan_predicts_coverage () =
  (* The estimate should land within ~10 points of real fault
     simulation at moderate pattern counts. *)
  List.iter
    (fun (c, seed) ->
      let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
      let universe = Faults.Collapse.representatives classes in
      let rng = Stats.Rng.create ~seed () in
      let patterns = Tpg.Random_tpg.uniform rng c ~count:128 in
      let st = Fsim.Stafan.analyze c patterns in
      let profile = Fsim.Coverage.profile c universe patterns in
      List.iter
        (fun k ->
          let actual = Fsim.Coverage.coverage_after profile k in
          let predicted = Fsim.Stafan.expected_coverage st universe ~pattern_count:k in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d actual=%.3f predicted=%.3f" k actual predicted)
            true
            (abs_float (actual -. predicted) < 0.12))
        [ 32; 64; 128 ])
    [ (Circuit.Generators.array_multiplier ~bits:4, 3);
      (Circuit.Generators.random_circuit ~inputs:12 ~gates:300 ~outputs:8 ~seed:5, 4) ]

let test_stafan_curve_monotone () =
  let c = Circuit.Generators.parity_tree ~bits:8 in
  let rng = Stats.Rng.create ~seed:6 () in
  let patterns = Tpg.Random_tpg.uniform rng c ~count:64 in
  let st = Fsim.Stafan.analyze c patterns in
  let universe = Faults.Universe.all c in
  let curve = Fsim.Stafan.predicted_curve st universe ~counts:[| 1; 4; 16; 64 |] in
  Array.iteri
    (fun i (_, f) ->
      if i > 0 then Alcotest.(check bool) "monotone" true (snd curve.(i - 1) <= f +. 1e-12))
    curve

let test_stafan_rejects_empty_pattern_set () =
  (* Zero patterns would divide by zero in every estimate; refuse at
     construction rather than return NaN-laced controllabilities. *)
  let c = Circuit.Generators.c17 () in
  Alcotest.(check bool) "no patterns raises" true
    (try
       ignore (Fsim.Stafan.analyze c [||]);
       false
     with Invalid_argument _ -> true)

let test_stafan_empty_universe () =
  (* An empty fault universe has nothing to cover: 0, not 0/0. *)
  let c = Circuit.Generators.c17 () in
  let st = Fsim.Stafan.analyze c (Oracle.exhaustive_patterns 5) in
  Alcotest.(check (float 1e-12)) "empty universe coverage" 0.0
    (Fsim.Stafan.expected_coverage st [||] ~pattern_count:64)

let test_stafan_detection_probability_strict_clamp () =
  (* The clamp lives at the source: no tolerance slack needed. *)
  List.iter
    (fun (c, seed, count) ->
      let rng = Stats.Rng.create ~seed () in
      let patterns = Tpg.Random_tpg.uniform rng c ~count in
      let st = Fsim.Stafan.analyze c patterns in
      Array.iter
        (fun fault ->
          let d = Fsim.Stafan.detection_probability st fault in
          Alcotest.(check bool) "d in [0,1] exactly" true (d >= 0.0 && d <= 1.0))
        (Faults.Universe.all c))
    [ (Circuit.Generators.c17 (), 9, 3);
      (Circuit.Generators.alu ~bits:3, 10, 1);
      (Circuit.Generators.random_circuit ~inputs:10 ~gates:80 ~outputs:4 ~seed:12,
       11, 17) ]

(* ------------------------------ sampling ----------------------------- *)

let test_sampling_full_sample_is_exact () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:44 ~count:64 c in
  let rng = Stats.Rng.create ~seed:44 () in
  let est =
    Fsim.Sampling.estimate_coverage rng c universe
      ~sample_size:(Array.length universe) patterns
  in
  let profile = Fsim.Coverage.profile c universe patterns in
  Alcotest.(check (float 1e-12)) "exact" (Fsim.Coverage.final_coverage profile)
    est.Fsim.Sampling.coverage;
  Alcotest.(check (float 1e-12)) "zero error" 0.0 est.Fsim.Sampling.std_error

let test_sampling_estimate_near_truth () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:45 ~count:64 c in
  let profile = Fsim.Coverage.profile c universe patterns in
  let truth = Fsim.Coverage.final_coverage profile in
  let rng = Stats.Rng.create ~seed:46 () in
  let hits = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    let est = Fsim.Sampling.estimate_coverage rng c universe ~sample_size:300 patterns in
    if est.Fsim.Sampling.lower_95 <= truth && truth <= est.Fsim.Sampling.upper_95 then
      incr hits
  done;
  (* 95% interval: allow a couple of misses in 20 trials. *)
  Alcotest.(check bool)
    (Printf.sprintf "interval covers truth in %d/%d trials" !hits trials)
    true (!hits >= 16)

let test_sampling_interval_bounds () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  let rng = Stats.Rng.create ~seed:47 () in
  let est = Fsim.Sampling.estimate_coverage rng c universe ~sample_size:10 patterns in
  Alcotest.(check bool) "bounds ordered" true
    (0.0 <= est.Fsim.Sampling.lower_95
    && est.Fsim.Sampling.lower_95 <= est.Fsim.Sampling.coverage
    && est.Fsim.Sampling.coverage <= est.Fsim.Sampling.upper_95
    && est.Fsim.Sampling.upper_95 <= 1.0)

let test_sampling_wilson_endpoints () =
  (* The Wald interval was degenerate at the endpoints: a partial
     sample that detects all (or none) of its faults got a zero-width
     interval.  The Wilson interval must stay open there. *)
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let full = Oracle.exhaustive_patterns 5 in
  let est =
    Fsim.Sampling.estimate_coverage
      (Stats.Rng.create ~seed:48 ())
      c universe ~sample_size:10 full
  in
  Alcotest.(check (float 1e-12)) "sample coverage 1" 1.0 est.Fsim.Sampling.coverage;
  Alcotest.(check (float 1e-12)) "upper clamps to 1" 1.0 est.Fsim.Sampling.upper_95;
  Alcotest.(check bool) "lower strictly below 1" true (est.Fsim.Sampling.lower_95 < 1.0);
  Alcotest.(check bool) "lower well above 0" true (est.Fsim.Sampling.lower_95 > 0.5);
  (* No patterns detect nothing: the other endpoint. *)
  let est0 =
    Fsim.Sampling.estimate_coverage
      (Stats.Rng.create ~seed:49 ())
      c universe ~sample_size:10 [||]
  in
  Alcotest.(check (float 1e-12)) "sample coverage 0" 0.0 est0.Fsim.Sampling.coverage;
  Alcotest.(check (float 1e-12)) "lower clamps to 0" 0.0 est0.Fsim.Sampling.lower_95;
  Alcotest.(check bool) "upper strictly above 0" true (est0.Fsim.Sampling.upper_95 > 0.0);
  (* A full sample stays exact: the interval collapses to the point. *)
  let exact =
    Fsim.Sampling.estimate_coverage
      (Stats.Rng.create ~seed:50 ())
      c universe ~sample_size:(Array.length universe) full
  in
  Alcotest.(check (float 1e-12)) "full sample lower" exact.Fsim.Sampling.coverage
    exact.Fsim.Sampling.lower_95;
  Alcotest.(check (float 1e-12)) "full sample upper" exact.Fsim.Sampling.coverage
    exact.Fsim.Sampling.upper_95

let test_sampling_n_detect () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.random_patterns ~seed:44 ~count:64 c in
  let estimate ?n_detect ~sample_size seed =
    Fsim.Sampling.estimate_coverage ?n_detect
      (Stats.Rng.create ~seed ())
      c universe ~sample_size patterns
  in
  (* Same seed, same sample: n_detect = 1 is the default estimator. *)
  let base = estimate ~sample_size:60 9 in
  let n1 = estimate ~n_detect:1 ~sample_size:60 9 in
  Alcotest.(check (float 1e-12)) "n_detect 1 = default" base.Fsim.Sampling.coverage
    n1.Fsim.Sampling.coverage;
  (* Demanding four detections cannot raise the estimate. *)
  let n4 = estimate ~n_detect:4 ~sample_size:60 9 in
  Alcotest.(check bool) "n=4 <= n=1" true
    (n4.Fsim.Sampling.coverage <= n1.Fsim.Sampling.coverage);
  (* A full sample reports the exact n-detect coverage. *)
  let full = Array.length universe in
  let exact =
    Fsim.Coverage.final_coverage (snd (Fsim.Coverage.grade ~n:4 c universe patterns))
  in
  Alcotest.(check (float 1e-12)) "full sample exact"
    exact
    (estimate ~n_detect:4 ~sample_size:full 9).Fsim.Sampling.coverage

(* ----------------------- multiple-fault machine --------------------- *)

let test_multifault_single_matches () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns 5 in
  let single = Fsim.Serial.run c universe patterns in
  Array.iteri
    (fun i fault ->
      let multi = Fsim.Serial.first_fail_with_fault_set c [| fault |] patterns in
      Alcotest.(check bool)
        (Printf.sprintf "%s singleton set" (F.to_string c fault))
        true (multi = single.(i)))
    universe

let test_multifault_masking_example () =
  (* Two inverters in a chain: y = NOT(NOT a).  a/sa0 alone flips y;
     stuck faults on both inverter outputs... instead build the classic
     masking pair: g = AND(a,b); faults a-pin/sa1 AND output sa1: the
     output fault dominates, the pair behaves like output sa1. *)
  let b = N.Builder.create ~name:"mask" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ a; bb ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let pin_fault = { F.site = F.Branch { gate = g; pin = 0 }; polarity = F.Stuck_at_1 } in
  let out_fault = { F.site = F.Stem g; polarity = F.Stuck_at_1 } in
  let patterns = Oracle.exhaustive_patterns 2 in
  let pair = Fsim.Serial.first_fail_with_fault_set c [| pin_fault; out_fault |] patterns in
  let alone = Fsim.Serial.first_fail_with_fault_set c [| out_fault |] patterns in
  Alcotest.(check bool) "pair behaves as dominating fault" true (pair = alone)

let test_multifault_polarity_clash_deterministic () =
  let c = Circuit.Generators.c17 () in
  let g10 = match N.find_node c "G10" with Some id -> id | None -> assert false in
  let sa0 = { F.site = F.Stem g10; polarity = F.Stuck_at_0 } in
  let sa1 = { F.site = F.Stem g10; polarity = F.Stuck_at_1 } in
  let patterns = Oracle.exhaustive_patterns 5 in
  (* Documented rule: sa1 wins. *)
  let clash = Fsim.Serial.first_fail_with_fault_set c [| sa0; sa1 |] patterns in
  let sa1_only = Fsim.Serial.first_fail_with_fault_set c [| sa1 |] patterns in
  Alcotest.(check bool) "sa1 wins" true (clash = sa1_only)

let test_multifault_empty_set_passes () =
  let c = Circuit.Generators.c17 () in
  Alcotest.(check bool) "no faults, no fail" true
    (Fsim.Serial.first_fail_with_fault_set c [||] (Oracle.exhaustive_patterns 5)
     = None)

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:15 ~name:"ppsfp = serial on random circuits"
      (triple (int_range 4 10) (int_range 20 120) (int_range 1 8))
      (fun (inputs, gates, n) ->
        let c =
          Circuit.Generators.random_circuit ~inputs ~gates ~outputs:4
            ~seed:(inputs + (gates * 13))
        in
        let universe = Faults.Universe.all c in
        let patterns = Oracle.random_patterns ~seed:(gates + 2) ~count:70 c in
        Fsim.Serial.run c universe patterns = Fsim.Ppsfp.run c universe patterns
        && Fsim.Serial.run_counts ~n c universe patterns
           = Oracle.run_counts ~n c universe patterns);
    Test.make ~count:15 ~name:"multi-fault first fail <= each member's (on chains it can differ)"
      (int_range 1 1000)
      (fun seed ->
        (* Not a theorem in general (masking), but for a singleton the
           multi-fault machine must agree with the single-fault one. *)
        let c = Circuit.Generators.random_circuit ~inputs:6 ~gates:60 ~outputs:4 ~seed in
        let universe = Faults.Universe.all c in
        let fault = universe.(seed mod Array.length universe) in
        let patterns = Oracle.random_patterns ~seed ~count:32 c in
        let single = (Fsim.Serial.run c [| fault |] patterns).(0) in
        let multi = Fsim.Serial.first_fail_with_fault_set c [| fault |] patterns in
        single = multi);
    Test.make ~count:12
      ~name:"par = ppsfp for any circuit, pattern count and domain count"
      (quad (int_range 4 10) (int_range 20 120) (int_range 1 8) (int_range 1 8))
      (fun (inputs, gates, domains, n) ->
        let c =
          Circuit.Generators.random_circuit ~inputs ~gates ~outputs:4
            ~seed:((inputs * 7) + gates)
        in
        let universe = Faults.Universe.all c in
        let count = 1 + (gates * 5 mod 130) in
        let patterns = Oracle.random_patterns ~seed:(gates + domains) ~count c in
        snd (Fsim.Par.run_counts ~domains ~n:1 c universe patterns)
        = Fsim.Ppsfp.run c universe patterns
        && Fsim.Par.run_counts ~domains ~n c universe patterns
           = Oracle.run_counts ~n c universe patterns);
    Test.make ~count:12
      ~name:"one n pass = serial first and n-th detections, whole or sliced"
      (quad (int_range 4 10) (int_range 20 120) (int_range 1 8) (int_range 1 3))
      (fun (inputs, gates, n, domains) ->
        let c =
          Circuit.Generators.random_circuit ~inputs ~gates ~outputs:4
            ~seed:((inputs * 11) + gates)
        in
        let universe = Faults.Universe.all c in
        let count = 1 + (gates * 3 mod 200) in
        let patterns = Oracle.random_patterns ~seed:(gates + n) ~count c in
        let first = Fsim.Serial.run c universe patterns in
        let detections, nth = Fsim.Serial.run_counts ~n c universe patterns in
        let agrees (st : Fsim.Coverage.state) =
          st.first = first && st.detections = detections && st.nth = nth
        in
        (* The whole set in one pass on [domains] domains... *)
        let whole = Fsim.Coverage.state ~n (Array.length universe) in
        ignore
          (Fsim.Coverage.extend ~engine:(Fsim.Coverage.Par { domains }) c universe
             whole ~offset:0 patterns);
        (* ...and the same patterns in random slices of 1 to 100. *)
        let sliced = Fsim.Coverage.state ~n (Array.length universe) in
        let rng = Stats.Rng.create ~seed:(inputs + gates + n) () in
        let pos = ref 0 in
        while !pos < count do
          let len = min (count - !pos) (1 + Stats.Rng.int rng 100) in
          ignore
            (Fsim.Coverage.extend c universe sliced ~offset:!pos
               (Array.sub patterns !pos len));
          pos := !pos + len
        done;
        agrees whole && agrees sliced) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "fsim.engines",
      [ tc "serial matches brute-force oracle" test_serial_matches_oracle_on_stems;
        tc "ppsfp = serial (c17 exhaustive)" test_ppsfp_equals_serial_c17;
        tc "ppsfp = serial (random circuits)" test_ppsfp_equals_serial_random;
        tc "ppsfp = serial (multiplier)" test_ppsfp_equals_serial_arithmetic;
        tc "c17 exhaustive coverage = 100%" test_c17_full_coverage_exhaustive;
        tc "first detection is minimal" test_first_detection_is_minimal ] );
    ( "fsim.coverage",
      [ tc "curve is monotone" test_coverage_curve_monotone;
        tc "coverage_after = curve" test_coverage_after_consistent;
        tc "undetected listing" test_undetected_listing ] );
    ( "fsim.par",
      [ tc "par = ppsfp (c17 exhaustive)" test_par_equals_ppsfp_c17;
        tc "par = ppsfp (odd pattern counts)" test_par_equals_ppsfp_odd_pattern_counts;
        tc "par = ppsfp (2k gates, 4 domains)" test_par_collapsed_universe_bit_identical;
        tc "coverage engine plumbing" test_par_via_coverage_engine;
        tc "empty universe" test_par_empty_universe;
        tc "lowest_set_bit = naive scan" test_lowest_set_bit_matches_naive ] );
    ( "fsim.ndetect",
      [ tc "popcount = naive scan" test_popcount_matches_naive;
        tc "nth_set_bit = naive scan" test_nth_set_bit_matches_naive;
        tc "n=1 bit-identical to first detection" test_ndetect_n1_equals_first_detection;
        tc "serial = ppsfp = par (n in 1,2,4,8)" test_ndetect_engines_bit_identical;
        tc "exhaustive nth-index oracle (c17)" test_ndetect_exhaustive_oracle;
        tc "coverage non-increasing in n" test_ndetect_coverage_monotone_in_n;
        tc "coverage engine plumbing" test_ndetect_via_coverage_engine;
        tc "n < 1 rejected" test_ndetect_invalid_n_rejected ] );
    ( "fsim.kernel",
      [ tc "every gate kind: serial = ppsfp = par" test_kernel_every_gate_kind;
        tc "lsi_chip n=64: serial = ppsfp = par" test_kernel_lsi_chip_n64;
        tc "malformed faults: one typed error" test_malformed_fault_rejected;
        tc "allocation guard" test_kernel_allocation_guard ] );
    ( "fsim.stafan",
      [ tc "controllabilities" test_stafan_controllabilities;
        tc "PO observability" test_stafan_po_observability;
        tc "detection probability bounds" test_stafan_detection_probability_bounds;
        tc "predicts real coverage" test_stafan_predicts_coverage;
        tc "predicted curve monotone" test_stafan_curve_monotone;
        tc "rejects empty pattern set" test_stafan_rejects_empty_pattern_set;
        tc "empty universe" test_stafan_empty_universe;
        tc "detection probability strict clamp" test_stafan_detection_probability_strict_clamp ] );
    ( "fsim.sampling",
      [ tc "full sample exact" test_sampling_full_sample_is_exact;
        tc "interval covers truth" test_sampling_estimate_near_truth;
        tc "interval bounds" test_sampling_interval_bounds;
        tc "Wilson interval open at endpoints" test_sampling_wilson_endpoints;
        tc "n-detect sampling" test_sampling_n_detect ] );
    ( "fsim.multifault",
      [ tc "singleton set = single fault" test_multifault_single_matches;
        tc "dominating pair" test_multifault_masking_example;
        tc "polarity clash is deterministic" test_multifault_polarity_clash_deterministic;
        tc "empty set passes" test_multifault_empty_set_passes ] );
    ( "fsim.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
