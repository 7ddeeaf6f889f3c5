(* Tests for the static random-pattern testability engine
   (Analysis.Signal_prob + Analysis.Detectability).

   The load-bearing property is *soundness of the bounds*: on every
   generator circuit small enough to enumerate exhaustively, the exact
   signal probability of every line and the exact per-pattern
   detection probability of every stuck-at fault must lie inside the
   statically computed intervals.  Exhaustive enumeration over 2^k
   uniform patterns *is* the uniform distribution, so the measured
   fractions are the true probabilities, not estimates.

   On fanout-free circuits (the parity tree) the analysis claims
   exactness; there the intervals must be points equal to the truth. *)

module N = Circuit.Netlist
module G = Circuit.Generators
module SP = Analysis.Signal_prob
module D = Analysis.Detectability

let eps = 1e-9

let exhaustive_patterns width =
  Array.init (1 lsl width) (fun v ->
      Array.init width (fun i -> (v lsr i) land 1 = 1))

let popcount word =
  let rec loop w acc =
    if w = 0L then acc else loop (Int64.logand w (Int64.sub w 1L)) (acc + 1)
  in
  loop word 0

(* True signal probability of every node: fraction of all 2^k patterns
   with the node at 1. *)
let exact_probabilities c patterns =
  let n = N.num_nodes c in
  let ones = Array.make n 0 in
  List.iter
    (fun block ->
      let values = Logicsim.Packed.eval_block c block in
      let live = Logicsim.Packed.live_mask block in
      for id = 0 to n - 1 do
        ones.(id) <- ones.(id) + popcount (Int64.logand values.(id) live)
      done)
    (Logicsim.Packed.blocks_of_patterns c patterns);
  Array.map
    (fun k -> float_of_int k /. float_of_int (Array.length patterns))
    ones

(* True per-pattern detection probability of every fault: fraction of
   all patterns on which the faulty machine differs at an output. *)
let exact_detections c patterns universe =
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  Array.map
    (fun fault ->
      let count =
        List.fold_left
          (fun acc block ->
            let good = Logicsim.Packed.eval_block c block in
            let good_outputs = Logicsim.Packed.output_words c good in
            acc + popcount (Fsim.Serial.detect_word c ~good_outputs fault block))
          0 blocks
      in
      float_of_int count /. float_of_int (Array.length patterns))
    universe

let workloads () =
  [ ("c17", G.c17 ());
    ("rca:4", G.ripple_carry_adder ~bits:4);
    ("cmp:4", G.comparator ~bits:4);
    ("dec:3", G.decoder ~bits:3);
    ("mux:2", G.mux_tree ~select_bits:2);
    ("parity:8", G.parity_tree ~bits:8);
    ("redundant", G.redundant_demo ());
    ("rand:8,30", G.random_circuit ~inputs:8 ~gates:30 ~outputs:4 ~seed:11);
    ("rand:10,60", G.random_circuit ~inputs:10 ~gates:60 ~outputs:5 ~seed:5) ]

let test_signal_probability_containment () =
  List.iter
    (fun (name, c) ->
      let sp = SP.analyze c in
      let exact = exact_probabilities c (exhaustive_patterns (N.num_inputs c)) in
      Array.iteri
        (fun id p ->
          let i = SP.probability sp id in
          if not (i.SP.lo -. eps <= p && p <= i.SP.hi +. eps) then
            Alcotest.failf "%s node %d: exact %.6f outside [%.6f, %.6f]" name
              id p i.SP.lo i.SP.hi)
        exact)
    (workloads ())

let test_detection_probability_containment () =
  List.iter
    (fun (name, c) ->
      let det = D.analyze (SP.analyze c) in
      let universe = Faults.Universe.all c in
      let patterns = exhaustive_patterns (N.num_inputs c) in
      let exact = exact_detections c patterns universe in
      Array.iteri
        (fun fi d_exact ->
          let i = D.detection det universe.(fi) in
          if not (i.SP.lo -. eps <= d_exact && d_exact <= i.SP.hi +. eps) then
            Alcotest.failf "%s %s: exact %.6f outside [%.6f, %.6f]" name
              (Faults.Fault.to_string c universe.(fi))
              d_exact i.SP.lo i.SP.hi)
        exact)
    (workloads ())

let test_fanout_free_is_exact () =
  let c = G.parity_tree ~bits:8 in
  let sp = SP.analyze c in
  Alcotest.(check bool) "no cuts" true (SP.exact sp);
  let det = D.analyze sp in
  Alcotest.(check bool) "detectability exact" true (D.exact det);
  let universe = Faults.Universe.all c in
  let exact = exact_detections c (exhaustive_patterns 8) universe in
  (* In a parity tree every line is always observable and every
     interval is a point equal to the truth. *)
  Array.iteri
    (fun fi d_exact ->
      let i = D.detection det universe.(fi) in
      Alcotest.(check (float 1e-9)) "zero width" 0.0 (SP.width i);
      Alcotest.(check (float 1e-9)) "point equals truth" d_exact i.SP.lo)
    exact;
  for id = 0 to N.num_nodes c - 1 do
    Alcotest.(check (float 1e-9)) "always observable" 1.0
      (D.observability det id).SP.lo
  done

let test_coverage_band_contains_expected_curve () =
  List.iter
    (fun (name, c) ->
      let det = D.analyze (SP.analyze c) in
      let universe = Faults.Universe.all c in
      let patterns = exhaustive_patterns (N.num_inputs c) in
      let exact = exact_detections c patterns universe in
      let total = float_of_int (Array.length universe) in
      List.iter
        (fun n ->
          let expected =
            Array.fold_left
              (fun acc d -> acc +. (1.0 -. ((1.0 -. d) ** float_of_int n)))
              0.0 exact
            /. total
          in
          let band = D.coverage_band det universe ~patterns:n in
          if not (band.SP.lo -. eps <= expected && expected <= band.SP.hi +. eps)
          then
            Alcotest.failf "%s n=%d: expected coverage %.6f outside [%.6f, %.6f]"
              name n expected band.SP.lo band.SP.hi)
        [ 1; 4; 16; 64; 256 ])
    [ ("c17", G.c17 ()); ("cmp:4", G.comparator ~bits:4);
      ("dec:3", G.decoder ~bits:3); ("dec:5", G.decoder ~bits:5);
      ("parity:8", G.parity_tree ~bits:8);
      ("rand:8,30", G.random_circuit ~inputs:8 ~gates:30 ~outputs:4 ~seed:11) ]

let test_untestable_claims_are_sound () =
  (* d_hi = 0 is a proof that no input pattern detects the fault:
     cross-check against exhaustive simulation. *)
  List.iter
    (fun (name, c) ->
      let det = D.analyze (SP.analyze c) in
      let universe = Faults.Universe.all c in
      let patterns = exhaustive_patterns (N.num_inputs c) in
      let exact = exact_detections c patterns universe in
      let index = Hashtbl.create 16 in
      Array.iteri (fun fi f -> Hashtbl.replace index f fi) universe;
      List.iter
        (fun f ->
          let d = exact.(Hashtbl.find index f) in
          if d > 0.0 then
            Alcotest.failf "%s: %s claimed untestable but detected (d=%.4f)"
              name (Faults.Fault.to_string c f) d)
        (D.untestable det universe))
    (workloads ())

let test_resistant_identification () =
  (* Every decoder output needs all five select bits plus enable at
     fixed values: detection probability 2^-6 < 0.02. *)
  let c = G.decoder ~bits:5 in
  let det = D.analyze (SP.analyze c) in
  let universe = Faults.Universe.all c in
  let resistant = D.resistant det universe ~threshold:0.02 in
  Alcotest.(check bool) "decoder has resistant faults" true
    (List.length resistant > 0);
  List.iter
    (fun (_f, d) ->
      Alcotest.(check bool) "below threshold" true (d.SP.hi < 0.02);
      Alcotest.(check bool) "not provably untestable" true (d.SP.hi > 0.0))
    resistant;
  (* The parity tree has no resistant fault at any sane threshold:
     every fault has detection probability >= 1/2 exactly. *)
  let p = G.parity_tree ~bits:8 in
  let detp = D.analyze (SP.analyze p) in
  Alcotest.(check int) "parity has none" 0
    (List.length (D.resistant detp (Faults.Universe.all p) ~threshold:0.4))

let test_test_length_calculator () =
  (* The decoder has no reconvergent stem, so its guaranteed band
     actually climbs to 1 and minimality can be checked. *)
  let c = G.decoder ~bits:5 in
  let det = D.analyze (SP.analyze c) in
  let universe = Faults.Universe.all c in
  let guaranteed, optimistic =
    D.test_length det universe ~target:0.9 ~max_patterns:65536
  in
  (match (guaranteed, optimistic) with
  | Some g, Some o ->
    Alcotest.(check bool) "optimistic <= guaranteed" true (o <= g);
    let band = D.coverage_band det universe ~patterns:g in
    Alcotest.(check bool) "guaranteed reaches target" true (band.SP.lo >= 0.9);
    if g > 1 then begin
      let before = D.coverage_band det universe ~patterns:(g - 1) in
      Alcotest.(check bool) "minimal" true (before.SP.lo < 0.9)
    end
  | _ -> Alcotest.fail "expected both test lengths to exist");
  let g2, _ = D.test_length det universe ~target:0.5 ~max_patterns:65536 in
  (match (g2, guaranteed) with
  | Some a, Some b -> Alcotest.(check bool) "monotone in target" true (a <= b)
  | _ -> Alcotest.fail "lower target must be reachable");
  (* Unreachable: the comparator's reconvergence pins d_lo = 0 on many
     faults, so its guaranteed band cannot approach 1. *)
  let cmp = G.comparator ~bits:4 in
  let detc = D.analyze (SP.analyze cmp) in
  let unreachable, _ =
    D.test_length detc (Faults.Universe.all cmp) ~target:0.9999
      ~max_patterns:65536
  in
  Alcotest.(check bool) "reconvergent guarantee saturates" true
    (unreachable = None)

let test_cutover () =
  let c = G.comparator ~bits:8 in
  let det = D.analyze (SP.analyze c) in
  let universe = Faults.Universe.all c in
  let n = D.cutover det universe ~block:64 ~max_patterns:512 () in
  Alcotest.(check bool) "within budget" true (n >= 0 && n <= 512);
  Alcotest.(check int) "block multiple" 0 (n mod 64);
  Alcotest.(check int) "huge gain requirement stops immediately" 0
    (D.cutover det universe ~block:64
       ~min_gain:(float_of_int (Array.length universe))
       ~max_patterns:512 ());
  Alcotest.(check int) "zero gain requirement runs to budget" 512
    (D.cutover det universe ~block:64 ~min_gain:0.0 ~max_patterns:512 ())

let test_engine_bundle () =
  let c = G.c17 () in
  let engine = Analysis.Engine.build ~learn_depth:None c in
  let det = Analysis.Engine.detectability engine in
  let sp = Analysis.Engine.prob engine in
  Alcotest.(check bool) "c17 has reconvergence" true (SP.cut_count sp > 0);
  Array.iter
    (fun f ->
      let d = D.detection det f in
      Alcotest.(check bool) "d in unit interval" true
        (d.SP.lo >= 0.0 && d.SP.hi <= 1.0 && d.SP.lo <= d.SP.hi))
    (Faults.Universe.all c)

let suite =
  [ ( "testability",
      [ Alcotest.test_case "signal-probability bounds contain exhaustive truth"
          `Quick test_signal_probability_containment;
        Alcotest.test_case "detection bounds contain exhaustive truth" `Quick
          test_detection_probability_containment;
        Alcotest.test_case "fanout-free circuits are exact" `Quick
          test_fanout_free_is_exact;
        Alcotest.test_case "coverage band contains expected curve" `Quick
          test_coverage_band_contains_expected_curve;
        Alcotest.test_case "static untestability claims are sound" `Quick
          test_untestable_claims_are_sound;
        Alcotest.test_case "resistant-fault identification" `Quick
          test_resistant_identification;
        Alcotest.test_case "test-length calculator" `Quick
          test_test_length_calculator;
        Alcotest.test_case "hybrid cutover prediction" `Quick test_cutover;
        Alcotest.test_case "engine bundles prob + detectability" `Quick
          test_engine_bundle ] ) ]
