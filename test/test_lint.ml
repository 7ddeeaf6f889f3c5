(* Tests for the lint subsystem.

   The load-bearing property is soundness: every fault the static
   analysis flags untestable must truly be undetectable, which we check
   by exhaustively simulating every input vector on small circuits.  On
   the redundant_demo reference circuit we additionally demand
   completeness — the flagged set equals the exhaustively undetectable
   set — and that excluding it restores coverage 1.0. *)

module F = Faults.Fault
module N = Circuit.Netlist
module U = Analysis.Untestable

let check_sound name c =
  let universe = Faults.Universe.all c in
  let truth = Oracle.undetectable_exhaustive c universe in
  let classes = Faults.Collapse.equivalence c universe in
  List.iter
    (fun (variant, flagged) ->
      Array.iter
        (fun (fault, reason) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s): %s flagged %s must be undetectable" name
               variant (F.to_string c fault)
               (U.reason_to_string reason))
            true
            (Hashtbl.mem truth fault))
        flagged)
    [ ("plain", U.untestable (U.prepare c) universe);
      ("crosschecked", U.untestable ~classes (U.prepare c) universe) ]

let test_soundness_generators () =
  check_sound "c17" (Circuit.Generators.c17 ());
  check_sound "rca3" (Circuit.Generators.ripple_carry_adder ~bits:3);
  check_sound "mux2" (Circuit.Generators.mux_tree ~select_bits:1);
  check_sound "redundant" (Circuit.Generators.redundant_demo ())

let test_soundness_random () =
  (* Random DAGs accumulate duplicated fanins and dead cones, the same
     degeneracies real synthesis leaves behind. *)
  for seed = 1 to 6 do
    check_sound
      (Printf.sprintf "rand seed %d" seed)
      (Circuit.Generators.random_circuit ~inputs:6 ~gates:24 ~outputs:3 ~seed)
  done

let test_redundant_demo_complete () =
  (* On the reference circuit the proofs are also complete: flagged set
     = exhaustively undetectable set, exactly. *)
  let c = Circuit.Generators.redundant_demo () in
  let universe = Faults.Universe.all c in
  let truth = Oracle.undetectable_exhaustive c universe in
  let classes = Faults.Collapse.equivalence c universe in
  let flagged = U.untestable_faults ~classes (U.prepare c) universe in
  let flagged_set = Hashtbl.create 16 in
  Array.iter (fun f -> Hashtbl.replace flagged_set f ()) flagged;
  Alcotest.(check int) "18 untestable of 54" 18 (Array.length flagged);
  Alcotest.(check int) "universe is 54" 54 (Array.length universe);
  Array.iter
    (fun fault ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: flagged iff undetectable" (F.to_string c fault))
        (Hashtbl.mem truth fault)
        (Hashtbl.mem flagged_set fault))
    universe

let test_corrected_coverage_reaches_one () =
  (* Acceptance: raw coverage saturates below 1.0, the
     redundancy-corrected figure reaches exactly 1.0. *)
  let c = Circuit.Generators.redundant_demo () in
  let universe = Faults.Universe.all c in
  let untestable = U.untestable_faults (U.prepare c) universe in
  let patterns = Oracle.exhaustive_patterns (N.num_inputs c) in
  let profile = Fsim.Coverage.profile c universe patterns in
  let raw = Fsim.Coverage.final_coverage profile in
  Alcotest.(check bool) "raw coverage < 1" true (raw < 1.0);
  Alcotest.(check (float 1e-9)) "raw = 36/54" (36.0 /. 54.0) raw;
  let corrected = Fsim.Coverage.excluding c profile ~universe ~untestable in
  Alcotest.(check int) "corrected universe" 36
    corrected.Fsim.Coverage.universe_size;
  Alcotest.(check (float 1e-9)) "corrected coverage = 1" 1.0
    (Fsim.Coverage.final_coverage corrected);
  (* Same answer when the universe is filtered before simulation. *)
  let kept = Faults.Universe.exclude_untestable c universe ~untestable in
  let profile2 = Fsim.Coverage.profile c kept patterns in
  Alcotest.(check (float 1e-9)) "pre-filtered coverage = 1" 1.0
    (Fsim.Coverage.final_coverage profile2)

let test_coverage_excluding_validates () =
  let c = Circuit.Generators.redundant_demo () in
  let universe = Faults.Universe.all c in
  let profile = Fsim.Coverage.profile c universe (Oracle.exhaustive_patterns 5) in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Coverage.excluding: universe does not match profile")
    (fun () ->
      ignore
        (Fsim.Coverage.excluding c profile
           ~universe:(Array.sub universe 0 10)
           ~untestable:[||]))

let test_exclude_untestable_semantics () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let sa0 = universe.(0) and sa1 = universe.(1) in
  let kept = Faults.Universe.exclude_untestable c universe ~untestable:[| sa1 |] in
  Alcotest.(check int) "one removed" (Array.length universe - 1)
    (Array.length kept);
  Alcotest.(check bool) "order preserved, head intact" true (kept.(0) = sa0);
  Alcotest.(check bool) "removed fault gone" false (Array.exists (( = ) sa1) kept);
  (* Faults absent from the universe are ignored: excluding a
     collapsed-away fault from the collapsed universe is a no-op. *)
  let collapsed =
    Faults.Collapse.representatives (Faults.Collapse.equivalence c universe)
  in
  let absent =
    Array.to_list universe
    |> List.find (fun f -> not (Array.exists (( = ) f) collapsed))
  in
  let kept2 =
    Faults.Universe.exclude_untestable c collapsed ~untestable:[| absent |]
  in
  Alcotest.(check int) "absent faults ignored" (Array.length collapsed)
    (Array.length kept2);
  Alcotest.(check bool) "empty exclusion is identity" true
    (Faults.Universe.exclude_untestable c universe ~untestable:[||] == universe)

let test_sampling_exclude () =
  let c = Circuit.Generators.redundant_demo () in
  let universe = Faults.Universe.all c in
  let untestable = U.untestable_faults (U.prepare c) universe in
  let corrected = Faults.Universe.exclude_untestable c universe ~untestable in
  let patterns = Oracle.exhaustive_patterns (N.num_inputs c) in
  let rng = Stats.Rng.create ~seed:7 () in
  let est =
    Fsim.Sampling.estimate_coverage rng c corrected ~sample_size:10_000 patterns
  in
  Alcotest.(check int) "corrected universe sampled" 36
    est.Fsim.Sampling.universe_size;
  Alcotest.(check (float 1e-9)) "full-sample corrected coverage" 1.0
    est.Fsim.Sampling.coverage

let test_ternary_identities () =
  let b = N.Builder.create ~name:"identities" in
  let x = N.Builder.add_input b "x" in
  let nx = N.Builder.add_gate b ~name:"nx" Circuit.Gate.Not [ x ] in
  let xor_xx = N.Builder.add_gate b ~name:"xor_xx" Circuit.Gate.Xor [ x; x ] in
  let and_xnx = N.Builder.add_gate b ~name:"and_xnx" Circuit.Gate.And [ x; nx ] in
  let or_xnx = N.Builder.add_gate b ~name:"or_xnx" Circuit.Gate.Or [ x; nx ] in
  let or_xx = N.Builder.add_gate b ~name:"or_xx" Circuit.Gate.Or [ x; x ] in
  let xnor_xx = N.Builder.add_gate b ~name:"xnor_xx" Circuit.Gate.Xnor [ x; x ] in
  List.iter (N.Builder.mark_output b)
    [ xor_xx; and_xnx; or_xnx; or_xx; xnor_xx ];
  let c = N.Builder.build b in
  let t = Analysis.Ternary.analyze c in
  let const id = Analysis.Ternary.const_value t id in
  Alcotest.(check (option bool)) "XOR(x,x) = 0" (Some false) (const xor_xx);
  Alcotest.(check (option bool)) "AND(x,~x) = 0" (Some false) (const and_xnx);
  Alcotest.(check (option bool)) "OR(x,~x) = 1" (Some true) (const or_xnx);
  Alcotest.(check (option bool)) "XNOR(x,x) = 1" (Some true) (const xnor_xx);
  (match Analysis.Ternary.value t or_xx with
  | Analysis.Ternary.Lit { src; inv } ->
    Alcotest.(check int) "OR(x,x) = x" x src;
    Alcotest.(check bool) "OR(x,x) not inverted" false inv
  | Analysis.Ternary.Const _ -> Alcotest.fail "OR(x,x) is not constant");
  (match Analysis.Ternary.value t nx with
  | Analysis.Ternary.Lit { src; inv } ->
    Alcotest.(check int) "NOT x tracks x" x src;
    Alcotest.(check bool) "NOT x inverted" true inv
  | Analysis.Ternary.Const _ -> Alcotest.fail "NOT x is not constant")

let test_structural_rules_fire () =
  let c = Circuit.Generators.redundant_demo () in
  let report = Lint.Driver.run c in
  let rules =
    List.sort_uniq compare
      (List.map (fun d -> d.Lint.Diagnostic.rule) report.Lint.Driver.diagnostics)
  in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fires on redundant_demo") true
        (List.mem rule rules))
    [ "constant-net"; "dead-logic"; "floating-input"; "duplicate-fanin";
      "untestable-fault"; "fanout-stats"; "reconvergence" ];
  Alcotest.(check int) "driver untestable count matches" 18
    (Array.length report.Lint.Driver.untestable);
  (* A clean circuit stays clean of warnings. *)
  let clean = Lint.Driver.run (Circuit.Generators.ripple_carry_adder ~bits:4) in
  Alcotest.(check int) "rca4 has no errors" 0 clean.Lint.Driver.errors;
  Alcotest.(check int) "rca4 has no warnings" 0 clean.Lint.Driver.warnings

let test_constant_output_is_error () =
  let b = N.Builder.create ~name:"const_out" in
  let x = N.Builder.add_input b "x" in
  let y = N.Builder.add_gate b ~name:"y" Circuit.Gate.Xor [ x; x ] in
  N.Builder.mark_output b y;
  let c = N.Builder.build b in
  let report = Lint.Driver.run c in
  Alcotest.(check bool) "constant-output error" true
    (List.exists
       (fun d ->
         d.Lint.Diagnostic.rule = "constant-output"
         && d.Lint.Diagnostic.severity = Lint.Diagnostic.Error)
       report.Lint.Driver.diagnostics);
  Alcotest.(check bool) "worst severity is Error" true
    (Lint.Driver.worst_severity report = Some Lint.Diagnostic.Error)

let test_cycle_path_reported () =
  (* A combinational loop in a .bench file must be reported as the full
     loop path, not a single node. *)
  let text =
    "INPUT(a)\nOUTPUT(y)\nb = AND(a, d)\nc = NOT(b)\nd = OR(c, a)\ny = NOT(d)\n"
  in
  match Circuit.Bench_format.parse_string text with
  | exception N.Cycle path ->
    let nodes = String.split_on_char ' ' path in
    let nodes = List.filter (fun s -> s <> "->" && s <> "") nodes in
    Alcotest.(check bool) "path has >= 4 entries" true (List.length nodes >= 4);
    let first = List.hd nodes and last = List.nth nodes (List.length nodes - 1) in
    Alcotest.(check string) "path closes on itself" first last;
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "%s is on the loop" n)
          true
          (List.mem n [ "b"; "c"; "d" ]))
      nodes
  | (_ : N.t) -> Alcotest.fail "cyclic bench text must raise Netlist.Cycle"

let test_undefined_signal_still_rejected () =
  (* The cycle walk must not misreport genuinely undefined signals. *)
  let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" in
  match Circuit.Bench_format.parse_string text with
  | exception Circuit.Bench_format.Parse_error { message; _ } ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "mentions the undefined signal" true
      (contains message "ghost")
  | (_ : N.t) -> Alcotest.fail "undefined signal must be a parse error"

let test_json_rendering () =
  let open Report.Json in
  Alcotest.(check string) "escaping"
    {|{"s":"a\"b\n\u0007"}|}
    (to_string (Obj [ ("s", String "a\"b\n\007") ]));
  Alcotest.(check string) "float keeps a decimal point" "1.0"
    (to_string (Float 1.0));
  Alcotest.(check string) "float round-trips" "0.1"
    (to_string (Float 0.1));
  Alcotest.(check string) "non-finite is null" "null"
    (to_string (Float nan));
  Alcotest.(check string) "nesting"
    {|{"a":[1,true,null],"b":{}}|}
    (to_string (Obj [ ("a", List [ Int 1; Bool true; Null ]); ("b", Obj []) ]));
  (* The lint report is valid enough JSON for a line-based smoke check:
     balanced braces and a summary block. *)
  let report = Lint.Driver.run (Circuit.Generators.redundant_demo ()) in
  let text = to_string_pretty (Lint.Driver.render_json report) in
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 text in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_pipeline_exclusion () =
  let config =
    { Experiments.Pipeline.default_config with
      Experiments.Pipeline.scale = 4; lot_size = 12;
      exclude_untestable = true }
  in
  let run = Experiments.Pipeline.execute config in
  let raw = Experiments.Pipeline.raw_coverage run in
  let corrected = Tester.Pattern_set.final_coverage run.Experiments.Pipeline.program in
  Alcotest.(check bool) "raw <= corrected" true (raw <= corrected +. 1e-12);
  (* The working universe must contain no proven-untestable fault. *)
  Array.iter
    (fun fault ->
      Alcotest.(check bool) "excluded fault absent from universe" false
        (Array.exists (( = ) fault) run.Experiments.Pipeline.universe))
    run.Experiments.Pipeline.untestable

let suite =
  [ ( "lint",
      [ Alcotest.test_case "soundness on generators" `Quick
          test_soundness_generators;
        Alcotest.test_case "soundness on random circuits" `Quick
          test_soundness_random;
        Alcotest.test_case "redundant_demo flagged = undetectable" `Quick
          test_redundant_demo_complete;
        Alcotest.test_case "corrected coverage reaches 1.0" `Quick
          test_corrected_coverage_reaches_one;
        Alcotest.test_case "Coverage.excluding validates input" `Quick
          test_coverage_excluding_validates;
        Alcotest.test_case "Universe.exclude_untestable semantics" `Quick
          test_exclude_untestable_semantics;
        Alcotest.test_case "Sampling the corrected universe" `Quick
          test_sampling_exclude;
        Alcotest.test_case "ternary identities" `Quick test_ternary_identities;
        Alcotest.test_case "structural rules fire" `Quick
          test_structural_rules_fire;
        Alcotest.test_case "constant output is an error" `Quick
          test_constant_output_is_error;
        Alcotest.test_case "cycle reported as full path" `Quick
          test_cycle_path_reported;
        Alcotest.test_case "undefined signal still a parse error" `Quick
          test_undefined_signal_still_rejected;
        Alcotest.test_case "json rendering" `Quick test_json_rendering;
        Alcotest.test_case "pipeline exclusion" `Quick test_pipeline_exclusion
      ] )
  ]
