(* Tests for the hash-consed ROBDD engine (lib/bdd) and the exact
   analysis built on it (Analysis.Exact).

   The load-bearing property is *exactness*: on every generator
   circuit small enough to enumerate, the BDD verdicts and
   probabilities must match exhaustive simulation bit-for-bit — not
   within a tolerance.  Every intermediate value is a dyadic rational
   with at most 2^k in the denominator (k <= 16 inputs here), which an
   IEEE double represents exactly, so `=` on floats is the honest
   check and any deviation is an engine bug. *)

module N = Circuit.Netlist
module G = Circuit.Generators
module SP = Analysis.Signal_prob
module D = Analysis.Detectability
module E = Analysis.Exact
module U = Analysis.Untestable
module R = Bdd.Robdd

let workloads () = Oracle.workloads () @ [ ("dec:5", G.decoder ~bits:5) ]

(* ------------------------------------------------------------------ *)
(* ROBDD core: canonicity, Boolean identities, eval/probability vs
   direct enumeration, graceful budget exhaustion. *)

let test_robdd_core () =
  let t = R.create ~num_vars:4 () in
  let a = R.var t 0 and b = R.var t 1 and c = R.var t 2 and d = R.var t 3 in
  Alcotest.(check int) "x xor x = 0" R.zero (R.xor t a a);
  Alcotest.(check int) "x or !x = 1" R.one (R.or_ t a (R.not_ t a));
  Alcotest.(check int) "x and 0 = 0" R.zero (R.and_ t a R.zero);
  Alcotest.(check int) "x xnor x = 1" R.one (R.xnor t a a);
  (* Canonicity: De Morgan builds the same node. *)
  Alcotest.(check int) "de morgan is one node"
    (R.or_ t a b)
    (R.not_ t (R.and_ t (R.not_ t a) (R.not_ t b)));
  (* eval against a direct truth table. *)
  let f = R.xor t (R.and_ t a b) (R.or_ t c (R.not_ t d)) in
  let truth = ref 0 in
  for v = 0 to 15 do
    let bit i = (v lsr i) land 1 = 1 in
    let assignment = Array.init 4 bit in
    let expected = (bit 0 && bit 1) <> (bit 2 || not (bit 3)) in
    if expected then incr truth;
    Alcotest.(check bool)
      (Printf.sprintf "eval at %d" v)
      expected (R.eval t f assignment)
  done;
  Alcotest.(check (float 0.0)) "probability = sat fraction"
    (float_of_int !truth /. 16.0)
    (R.probability t f);
  Alcotest.(check (float 0.0)) "sat_count" (float_of_int !truth)
    (R.sat_count t f);
  (match R.any_sat t f with
  | Some assignment ->
    let arr = Array.make 4 false in
    List.iter (fun (level, v) -> arr.(level) <- v) assignment;
    Alcotest.(check bool) "any_sat satisfies" true (R.eval t f arr)
  | None -> Alcotest.fail "any_sat of a satisfiable function");
  Alcotest.(check bool) "any_sat zero is None" true (R.any_sat t R.zero = None);
  (* Budget exhaustion leaves the manager usable. *)
  let tiny = R.create ~budget:2 ~num_vars:4 () in
  Alcotest.check_raises "terminal-only budget" R.Exceeded (fun () ->
      ignore (R.var tiny 0));
  Alcotest.(check int) "manager still usable" 2 (R.size tiny);
  Alcotest.(check bool) "terminals still evaluate" false
    (R.eval tiny R.zero (Array.make 4 false))

(* ------------------------------------------------------------------ *)
(* Exhaustive oracles: on every <=16-input workload the exact analysis
   must classify every fault (no Unknown) and agree with brute force
   bit-for-bit. *)

let test_verdicts_match_exhaustive () =
  List.iter
    (fun (name, c) ->
      let exact = E.analyze c in
      if not (E.complete exact) then
        Alcotest.failf "%s: %d faults Unknown under the default budget" name
          (E.unknown_count exact);
      let universe = Faults.Universe.all c in
      let truth =
        Oracle.exact_detections c (Oracle.exhaustive_patterns (N.num_inputs c)) universe
      in
      Array.iteri
        (fun fi fault ->
          match E.verdict exact fault with
          | E.Unknown ->
            Alcotest.failf "%s: %s Unknown despite complete" name
              (Faults.Fault.to_string c fault)
          | E.Untestable ->
            if truth.(fi) > 0.0 then
              Alcotest.failf "%s: %s proved redundant but detected (d=%.6f)"
                name (Faults.Fault.to_string c fault) truth.(fi)
          | E.Testable p ->
            if p <> truth.(fi) then
              Alcotest.failf "%s: %s exact d=%.17g but truth %.17g" name
                (Faults.Fault.to_string c fault) p truth.(fi);
            if truth.(fi) = 0.0 then
              Alcotest.failf "%s: %s Testable but never detected" name
                (Faults.Fault.to_string c fault))
        universe)
    (workloads ())

(* Verdicts are read by dense fault id; a fault that is not a line of
   the circuit has none. *)
let test_verdict_outside_circuit () =
  let c = Circuit.Generators.c17 () in
  let exact = E.analyze c in
  List.iter
    (fun site ->
      let fault = { Faults.Fault.site; polarity = Faults.Fault.Stuck_at_1 } in
      Alcotest.(check bool) (Faults.Fault.to_string c fault) true
        (E.verdict exact fault = E.Unknown))
    [ Faults.Fault.Stem 999; Faults.Fault.Branch { gate = 0; pin = 0 };
      Faults.Fault.Branch { gate = N.num_nodes c - 1; pin = 2 } ]

let test_signal_probabilities_match_exhaustive () =
  List.iter
    (fun (name, c) ->
      let exact = E.analyze c in
      let truth =
        Oracle.exact_probabilities c (Oracle.exhaustive_patterns (N.num_inputs c))
      in
      for id = 0 to N.num_nodes c - 1 do
        match E.signal_probability exact id with
        | None -> Alcotest.failf "%s: node %d has no exact probability" name id
        | Some p ->
          if p <> truth.(id) then
            Alcotest.failf "%s: node %d exact p=%.17g but truth %.17g" name id
              p truth.(id)
      done)
    (workloads ())

let test_redundancy_superset_of_lint () =
  (* The BDD proof is complete, the structural proofs are one-sided:
     everything lint proves must be re-proved by the BDD, and on a
     complete analysis the BDD set *is* the exhaustively undetectable
     set. *)
  List.iter
    (fun (name, c) ->
      let universe = Faults.Universe.all c in
      let exact = E.analyze c in
      let bdd = E.untestable exact universe in
      let classes = Faults.Collapse.equivalence c universe in
      let engine = Analysis.Engine.build c in
      let structural =
        U.untestable_faults ~classes (Analysis.Engine.untestable engine) universe
      in
      Array.iter
        (fun f ->
          if not (List.mem f bdd) then
            Alcotest.failf "%s: lint proved %s untestable but the BDD did not"
              name (Faults.Fault.to_string c f))
        structural;
      let truth =
        Oracle.exact_detections c (Oracle.exhaustive_patterns (N.num_inputs c)) universe
      in
      Array.iteri
        (fun fi fault ->
          let undetectable = truth.(fi) = 0.0 in
          if undetectable <> List.mem fault bdd then
            Alcotest.failf "%s: %s undetectable=%b but BDD says %b" name
              (Faults.Fault.to_string c fault) undetectable
              (List.mem fault bdd))
        universe)
    (workloads ())

let test_redundant_demo_fully_classified () =
  let c = G.redundant_demo () in
  let universe = Faults.Universe.all c in
  Alcotest.(check int) "universe size" 54 (Array.length universe);
  let exact = E.analyze c in
  Alcotest.(check bool) "54/54 classified" true (E.complete exact);
  Alcotest.(check int) "no unknowns" 0 (E.unknown_count exact);
  (* The BDD pass through the lint front end adds the Redundant reason
     on top of the structural proofs and never loses one. *)
  let with_exact = U.untestable_faults (U.prepare ~exact c) universe in
  let without = U.untestable_faults (U.prepare c) universe in
  Alcotest.(check bool) "exact proves at least as much" true
    (Array.length with_exact >= Array.length without);
  Alcotest.(check int) "exact front end matches BDD set"
    (List.length (E.untestable exact universe))
    (Array.length with_exact)

(* ------------------------------------------------------------------ *)
(* Band refinement: the exact coverage band is contained in the
   interval band everywhere, collapses to a point on a complete
   analysis, and strictly sharpens the reject band on the seeded
   redundancy demo. *)

let test_exact_band_contained_in_interval_band () =
  let eps = 1e-12 in
  List.iter
    (fun (name, c) ->
      let exact = E.analyze c in
      let det = D.analyze (SP.analyze c) in
      let universe = Faults.Universe.all c in
      List.iter
        (fun n ->
          let interval = D.coverage_band det universe ~patterns:n in
          let refined = E.coverage_band exact det universe ~patterns:n in
          if
            refined.SP.lo < interval.SP.lo -. eps
            || refined.SP.hi > interval.SP.hi +. eps
          then
            Alcotest.failf "%s n=%d: exact [%.9f, %.9f] escapes [%.9f, %.9f]"
              name n refined.SP.lo refined.SP.hi interval.SP.lo interval.SP.hi;
          if E.complete exact && SP.width refined > eps then
            Alcotest.failf "%s n=%d: complete analysis left width %.2e" name n
              (SP.width refined))
        [ 1; 16; 256 ])
    (workloads ())

let test_reject_band_strictly_sharper_on_redundant_demo () =
  let c = G.redundant_demo () in
  let exact = E.analyze c in
  let det = D.analyze (SP.analyze c) in
  let reps =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let n = 256 in
  let interval = D.coverage_band det reps ~patterns:n in
  let refined = E.coverage_band exact det reps ~patterns:n in
  Alcotest.(check bool) "coverage band strictly narrower" true
    (SP.width refined < SP.width interval);
  let r_lo_i, r_hi_i =
    Quality.Reject.reject_band ~yield_:0.07 ~n0:8.0 (interval.SP.lo, interval.SP.hi)
  in
  let r_lo_e, r_hi_e =
    Quality.Reject.reject_band ~yield_:0.07 ~n0:8.0 (refined.SP.lo, refined.SP.hi)
  in
  Alcotest.(check bool) "reject band contained" true
    (r_lo_e >= r_lo_i && r_hi_e <= r_hi_i);
  Alcotest.(check bool) "reject band strictly narrower" true
    (r_hi_e -. r_lo_e < r_hi_i -. r_lo_i)

let test_budget_fallback_degrades_to_intervals () =
  let c = G.c17 () in
  let exact = E.analyze ~budget:4 c in
  Alcotest.(check bool) "good machine did not fit" false (E.built exact);
  Alcotest.(check bool) "nothing classified" false (E.complete exact);
  Alcotest.(check int) "all unknown" (E.universe_size exact)
    (E.unknown_count exact);
  Array.iter
    (fun f ->
      Alcotest.(check bool) "verdict Unknown" true
        (E.verdict exact f = E.Unknown))
    (Faults.Universe.all c);
  Alcotest.(check bool) "no signal probability" true
    (E.signal_probability exact 0 = None);
  (* With nothing classified, the refined band *is* the interval band. *)
  let det = D.analyze (SP.analyze c) in
  let universe = Faults.Universe.all c in
  List.iter
    (fun n ->
      let interval = D.coverage_band det universe ~patterns:n in
      let refined = E.coverage_band exact det universe ~patterns:n in
      Alcotest.(check (float 0.0)) "lo falls back" interval.SP.lo refined.SP.lo;
      Alcotest.(check (float 0.0)) "hi falls back" interval.SP.hi refined.SP.hi)
    [ 1; 64 ]

(* ------------------------------------------------------------------ *)
(* Variable ordering: sifting returns a valid permutation and never
   loses to the DFS order it starts from. *)

let test_sifting_never_loses () =
  List.iter
    (fun (name, c) ->
      let dfs = Bdd.Build.dfs_order c in
      let sifted = Bdd.Build.sift_order c dfs in
      let k = N.num_inputs c in
      Alcotest.(check int) (name ^ " length") k (Array.length sifted);
      let seen = Array.make k false in
      Array.iter
        (fun pos ->
          if pos < 0 || pos >= k || seen.(pos) then
            Alcotest.failf "%s: sifted order is not a permutation" name;
          seen.(pos) <- true)
        sifted;
      let nodes order =
        Bdd.Build.total_nodes (Bdd.Build.build ~order c)
      in
      Alcotest.(check bool) (name ^ " sift <= dfs") true
        (nodes sifted <= nodes dfs))
    [ ("c17", G.c17 ()); ("dec:3", G.decoder ~bits:3);
      ("dec:5", G.decoder ~bits:5); ("parity:8", G.parity_tree ~bits:8);
      ("rca:4", G.ripple_carry_adder ~bits:4);
      ("rand:8,30", G.random_circuit ~inputs:8 ~gates:30 ~outputs:4 ~seed:11) ]

(* ------------------------------------------------------------------ *)
(* Equivalence checking. *)

let adder_chain () =
  Circuit.Bench_format.parse_string ~name:"adder_chain"
    {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
p = XOR(a, b)
sum = XOR(p, cin)
g = AND(a, b)
t = AND(cin, p)
cout = OR(g, t)|}

let adder_majority () =
  Circuit.Bench_format.parse_string ~name:"adder_majority"
    {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
q = XOR(b, cin)
sum = XOR(a, q)
m1 = AND(a, b)
m2 = AND(a, cin)
m3 = AND(b, cin)
m12 = OR(m1, m2)
cout = OR(m12, m3)|}

let adder_mutant () =
  Circuit.Bench_format.parse_string ~name:"adder_mutant"
    {|INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
q = XOR(b, cin)
sum = XOR(a, q)
m1 = AND(a, b)
m2 = AND(a, cin)
m3 = OR(b, cin)
m12 = OR(m1, m2)
cout = OR(m12, m3)|}

let test_equiv_verdicts () =
  (match Bdd.Equiv.check (adder_chain ()) (adder_majority ()) with
  | Ok Bdd.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "structurally distinct adders must be equivalent");
  (* Reflexivity on every workload. *)
  List.iter
    (fun (name, c) ->
      match Bdd.Equiv.check c c with
      | Ok Bdd.Equiv.Equivalent -> ()
      | _ -> Alcotest.failf "%s: not equivalent to itself" name)
    (workloads ());
  (* The mutant mismatches and the counterexample replays as a real
     output difference under plain simulation. *)
  let a = adder_chain () and m = adder_mutant () in
  match Bdd.Equiv.check a m with
  | Ok (Bdd.Equiv.Mismatch { output; pattern }) ->
    Alcotest.(check string) "differs on the carry" "cout" output;
    let outputs c =
      let values =
        Logicsim.Refsim.eval c
          (Array.map
             (fun id -> List.assoc c.N.node_names.(id) pattern)
             c.N.inputs)
      in
      Array.map (fun id -> values.(id)) c.N.outputs
    in
    Alcotest.(check bool) "counterexample replays" true
      (outputs a <> outputs m)
  | _ -> Alcotest.fail "mutant must mismatch"

let test_equiv_interface_and_budget () =
  (* Different interfaces are a usage error, not a verdict. *)
  (match Bdd.Equiv.check (adder_chain ()) (G.c17 ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "interface disagreement must be an error");
  (* A starved budget is inconclusive, never a wrong verdict. *)
  match Bdd.Equiv.check ~budget:4 (adder_chain ()) (adder_majority ()) with
  | Ok (Bdd.Equiv.Inconclusive _) -> ()
  | _ -> Alcotest.fail "tiny budget must be inconclusive"

(* ------------------------------------------------------------------ *)
(* Integration: the prover with the exact bundle and ATPG's SAT proof
   agree with exhaustive simulation, and so with each other, fault by
   fault. *)

let test_exact_prover_agrees_with_sat_proof () =
  let c = G.redundant_demo () in
  let universe = Faults.Universe.all c in
  let truth =
    Oracle.exact_detections c (Oracle.exhaustive_patterns (N.num_inputs c)) universe
  in
  let engine = Analysis.Engine.build ~exact_budget:E.default_budget c in
  Alcotest.(check bool) "engine carries the exact bundle" true
    (Analysis.Engine.exact engine <> None);
  let prover = Analysis.Engine.untestable engine in
  let untestable = ref 0 and tests = ref 0 in
  Array.iteri
    (fun fi fault ->
      let name = Faults.Fault.to_string c fault in
      let redundant = truth.(fi) = 0.0 in
      Alcotest.(check bool) (name ^ ": prover verdict = exhaustive") redundant
        (U.verdict prover fault <> None);
      match Tpg.Atpg.prove c fault with
      | Tpg.Podem.Untestable ->
        if not redundant then
          Alcotest.failf "%s: proof verdict Untestable but d=%.4f" name truth.(fi);
        incr untestable
      | Tpg.Podem.Test pattern ->
        Alcotest.(check bool) (name ^ ": model detects") true
          ((Fsim.Serial.run c [| fault |] [| pattern |]).(0) <> None);
        incr tests
      | Tpg.Podem.Aborted ->
        Alcotest.failf "%s: proof ran out on a 54-fault demo" name)
    universe;
  Alcotest.(check (pair int int)) "18 untestable, 36 with a test" (18, 36)
    (!untestable, !tests)

let suite =
  [ ( "bdd",
      [ Alcotest.test_case "ROBDD core: canonicity, eval, budget" `Quick
          test_robdd_core;
        Alcotest.test_case "verdicts match exhaustive simulation" `Quick
          test_verdicts_match_exhaustive;
        Alcotest.test_case "verdict outside the circuit is Unknown" `Quick
          test_verdict_outside_circuit;
        Alcotest.test_case "signal probabilities match exhaustive truth" `Quick
          test_signal_probabilities_match_exhaustive;
        Alcotest.test_case "BDD redundancies contain the lint proofs" `Quick
          test_redundancy_superset_of_lint;
        Alcotest.test_case "redundant_demo is fully classified" `Quick
          test_redundant_demo_fully_classified;
        Alcotest.test_case "exact band contained in interval band" `Quick
          test_exact_band_contained_in_interval_band;
        Alcotest.test_case "reject band strictly sharper on redundant demo"
          `Quick test_reject_band_strictly_sharper_on_redundant_demo;
        Alcotest.test_case "budget fallback degrades to intervals" `Quick
          test_budget_fallback_degrades_to_intervals;
        Alcotest.test_case "sifting never loses to the DFS order" `Quick
          test_sifting_never_loses;
        Alcotest.test_case "equivalence verdicts and counterexamples" `Quick
          test_equiv_verdicts;
        Alcotest.test_case "equiv interface errors and budget" `Quick
          test_equiv_interface_and_budget;
        Alcotest.test_case "exact prover agrees with the SAT proof" `Quick
          test_exact_prover_agrees_with_sat_proof ] ) ]
