(* Tests for the static-analysis engine (lib/analysis).

   Three properties carry the subsystem:

   - dominators are *exact*: on every small circuit the computed
     chains equal the intersection of all brute-force-enumerated
     source-to-output paths;
   - the implication graph is sound and closed: learning terminates at
     a fixpoint, every implication has its contrapositive, and every
     fault the analysis proves untestable is exhaustively
     undetectable;
   - dominance collapsing loses nothing: any test set complete for the
     dominating faults detects every dropped fault, and coverage over
     the collapsed universe reads 1.0 where the raw figure already
     saturates. *)

module F = Faults.Fault
module N = Circuit.Netlist
module U = Analysis.Untestable
module ISet = Set.Make (Int)

let id_of c name =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name then found := i) c.N.node_names;
  if !found < 0 then failwith ("no node named " ^ name);
  !found

(* ------------------------------------------------------------------ *)
(* Dominators vs brute-force path enumeration. *)

(* Every path from [n]'s stem to a primary output, as a node set
   (including [n] and the output).  Exponential, fine on <=12 gates. *)
let brute_dominators c n =
  let is_po = Array.make (N.num_nodes c) false in
  Array.iter (fun o -> is_po.(o) <- true) c.N.outputs;
  let paths = ref [] in
  let rec dfs node acc =
    let acc = ISet.add node acc in
    if is_po.(node) then paths := acc :: !paths;
    Array.iter (fun m -> dfs m acc) c.N.fanouts.(node)
  in
  dfs n ISet.empty;
  match !paths with
  | [] -> None
  | first :: rest ->
    Some (ISet.remove n (List.fold_left ISet.inter first rest))

let check_dominators_exact name c =
  let dom = Analysis.Dominators.compute c in
  for n = 0 to N.num_nodes c - 1 do
    let computed = Analysis.Dominators.dominators dom n in
    match brute_dominators c n with
    | None ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s unobservable" name c.N.node_names.(n))
        false
        (Analysis.Dominators.observable dom n);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: %s no dominators" name c.N.node_names.(n))
        [] computed
    | Some truth ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s observable" name c.N.node_names.(n))
        true
        (Analysis.Dominators.observable dom n);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: %s dominator set" name c.N.node_names.(n))
        (ISet.elements truth)
        (List.sort compare computed);
      (* The chain order promised by the interface: nearest first. *)
      ignore
        (List.fold_left
           (fun level d ->
             Alcotest.(check bool)
               (Printf.sprintf "%s: %s chain is nearest-first" name
                  c.N.node_names.(n))
               true
               (c.N.levels.(d) >= level);
             c.N.levels.(d))
           (-1) computed)
  done

let test_dominators_brute_force () =
  check_dominators_exact "c17" (Circuit.Generators.c17 ());
  check_dominators_exact "redundant" (Circuit.Generators.redundant_demo ());
  for seed = 1 to 8 do
    check_dominators_exact
      (Printf.sprintf "rand seed %d" seed)
      (Circuit.Generators.random_circuit ~inputs:5 ~gates:12 ~outputs:3 ~seed)
  done

(* ------------------------------------------------------------------ *)
(* The c17.bench example file is a fixed reference: it must stay in
   sync with Generators.c17 and its analysis facts must not drift. *)

let test_c17_bench_reference () =
  (* cwd is the test directory under `dune runtest`, the workspace root
     under `dune exec`. *)
  let path =
    List.find Sys.file_exists
      [ "../examples/circuits/c17.bench"; "examples/circuits/c17.bench" ]
  in
  let c = Circuit.Bench_format.parse_file path in
  Alcotest.(check string) "file matches Generators.c17"
    (Circuit.Bench_format.to_string (Circuit.Generators.c17 ()))
    (Circuit.Bench_format.to_string c);
  let engine = Analysis.Engine.build ~learn_depth:(Some 2) c in
  let dom = Analysis.Engine.dominators engine in
  let imp = Option.get (Analysis.Engine.implication engine) in
  let chain n = List.map (fun i -> c.N.node_names.(i))
      (Analysis.Dominators.dominators dom (id_of c n))
  in
  List.iter
    (fun (stem, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "chain of %s" stem)
        expected (chain stem))
    [ ("G1", [ "G10"; "G22" ]); ("G2", [ "G16" ]); ("G3", []);
      ("G6", [ "G11" ]); ("G7", [ "G19"; "G23" ]); ("G10", [ "G22" ]);
      ("G11", []); ("G16", []); ("G19", [ "G23" ]); ("G22", []);
      ("G23", []) ];
  Alcotest.(check int) "26 implications" 26
    (Analysis.Implication.direct_count imp);
  Alcotest.(check int) "26 learned edges" 26
    (Analysis.Implication.learned_count imp);
  Alcotest.(check bool) "learned contrapositive G23=1 => G11=1" true
    (Analysis.Implication.implies imp (id_of c "G23", true)
       (id_of c "G11", true));
  Alcotest.(check (list (pair int bool))) "no constants" []
    (Analysis.Implication.constants imp);
  Alcotest.(check (list int)) "no contradictions" []
    (Analysis.Implication.contradictory imp)

(* ------------------------------------------------------------------ *)
(* Implication engine: termination, contrapositive closure, learned
   constants. *)

let test_fixpoint_terminates () =
  List.iter
    (fun c ->
      let imp = Analysis.Implication.learn ~depth:1000 c in
      Alcotest.(check bool) "fixpoint reached well before the depth bound"
        true
        (Analysis.Implication.rounds imp < 1000))
    [ Circuit.Generators.c17 ();
      Circuit.Generators.redundant_demo ();
      Circuit.Generators.random_circuit ~inputs:6 ~gates:30 ~outputs:4 ~seed:3 ]

let check_contrapositive_closed name c =
  let imp = Analysis.Implication.learn ~depth:16 c in
  let nodes = N.num_nodes c in
  for a = 0 to nodes - 1 do
    List.iter
      (fun va ->
        if not (Analysis.Implication.infeasible imp a va) then
          match Analysis.Implication.consequences imp a va with
          | None -> ()
          | Some consequences ->
            List.iter
              (fun (b, vb) ->
                if not (Analysis.Implication.infeasible imp b (not vb)) then
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s: %s=%b => %s=%b has contrapositive" name
                       c.N.node_names.(a) va c.N.node_names.(b) vb)
                    true
                    (Analysis.Implication.implies imp (b, not vb) (a, not va)))
              consequences)
      [ false; true ]
  done

let test_contrapositive_symmetry () =
  check_contrapositive_closed "c17" (Circuit.Generators.c17 ());
  for seed = 1 to 4 do
    check_contrapositive_closed
      (Printf.sprintf "rand seed %d" seed)
      (Circuit.Generators.random_circuit ~inputs:5 ~gates:10 ~outputs:3 ~seed)
  done

let test_learned_constants_on_redundant_demo () =
  let c = Circuit.Generators.redundant_demo () in
  let imp = Analysis.Implication.learn ~depth:2 c in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (option bool))
        (Printf.sprintf "%s proved constant" name)
        (Some expected)
        (Analysis.Implication.constant imp (id_of c name)))
    [ ("zero", false); ("blk", false); ("g3", false) ];
  Alcotest.(check (list int)) "no contradictory nodes" []
    (Analysis.Implication.contradictory imp)

let test_engine_without_learning () =
  let c = Circuit.Generators.c17 () in
  let engine = Analysis.Engine.build ~learn_depth:None c in
  Alcotest.(check bool) "implication engine absent" true
    (Analysis.Engine.implication engine = None)

(* ------------------------------------------------------------------ *)
(* Soundness of the analysis-strengthened lint proofs: every fault
   flagged with the engine attached must be exhaustively
   undetectable. *)

let check_analysis_lint_sound name c =
  let universe = Faults.Universe.all c in
  let truth = Oracle.undetectable_exhaustive c universe in
  let classes = Faults.Collapse.equivalence c universe in
  let analysis = Analysis.Engine.build ~learn_depth:(Some 2) c in
  let flagged = U.untestable ~classes (Analysis.Engine.untestable analysis) universe in
  Array.iter
    (fun (fault, reason) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s flagged %s must be undetectable" name
           (F.to_string c fault)
           (U.reason_to_string reason))
        true
        (Hashtbl.mem truth fault))
    flagged;
  (* Attaching the engine must never lose a proof the plain linter has. *)
  let plain = U.untestable ~classes (U.prepare c) universe in
  Alcotest.(check bool)
    (Printf.sprintf "%s: analysis proofs superset of plain" name)
    true
    (Array.length flagged >= Array.length plain)

let test_analysis_lint_soundness () =
  check_analysis_lint_sound "redundant" (Circuit.Generators.redundant_demo ());
  check_analysis_lint_sound "c17" (Circuit.Generators.c17 ());
  for seed = 1 to 6 do
    check_analysis_lint_sound
      (Printf.sprintf "rand seed %d" seed)
      (Circuit.Generators.random_circuit ~inputs:6 ~gates:24 ~outputs:3 ~seed)
  done

(* ------------------------------------------------------------------ *)
(* Dominance collapsing. *)

(* The property the collapse rests on: any test detecting a dominating
   fault also detects the dropped fault — so first detection of the
   dropped fault can never come later. *)
let check_dominance_drops name c patterns =
  let universe = Faults.Universe.all c in
  let classes = Faults.Collapse.equivalence c universe in
  let profile = Fsim.Coverage.profile c universe patterns in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i f -> Hashtbl.replace index f i) universe;
  let detection f =
    profile.Fsim.Coverage.first_detection.(Hashtbl.find index f)
  in
  let drops = Faults.Collapse.dominance_drops c classes in
  Alcotest.(check bool) (name ^ ": some classes dropped") true (drops <> []);
  List.iter
    (fun (dropped, dominators) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s has dominating faults" name
           (F.to_string c dropped))
        true (dominators <> []);
      List.iter
        (fun dominator ->
          match detection dominator with
          | None -> ()
          | Some k -> (
            match detection dropped with
            | Some j ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s detected no later than %s" name
                   (F.to_string c dropped)
                   (F.to_string c dominator))
                true (j <= k)
            | None ->
              Alcotest.failf "%s: %s detected but dropped %s never" name
                (F.to_string c dominator)
                (F.to_string c dropped)))
        dominators)
    drops

let test_dominance_drop_property () =
  let c17 = Circuit.Generators.c17 () in
  check_dominance_drops "c17" c17 (Oracle.exhaustive_patterns (N.num_inputs c17));
  for seed = 1 to 5 do
    let c =
      Circuit.Generators.random_circuit ~inputs:7 ~gates:40 ~outputs:4 ~seed
    in
    let patterns =
      Tpg.Random_tpg.uniform (Stats.Rng.create ~seed:(seed * 11) ()) c ~count:48
    in
    check_dominance_drops (Printf.sprintf "rand seed %d" seed) c patterns
  done

let test_dominance_collapsed_coverage_one () =
  (* On irredundant c17 an exhaustive set covers 100% of every level of
     the collapse; counts are the textbook 46 -> 22 -> 16. *)
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let dominance = Faults.Universe.collapse_dominance c universe in
  Alcotest.(check int) "46 raw" 46 (Array.length universe);
  Alcotest.(check int) "16 after dominance" 16 (Array.length dominance);
  let patterns = Oracle.exhaustive_patterns (N.num_inputs c) in
  let profile = Fsim.Coverage.profile c universe patterns in
  let collapsed =
    Fsim.Coverage.restrict c profile ~universe ~keep:dominance
  in
  Alcotest.(check int) "restricted universe" 16
    collapsed.Fsim.Coverage.universe_size;
  Alcotest.(check (float 1e-9)) "collapsed coverage 1.0" 1.0
    (Fsim.Coverage.final_coverage collapsed);
  (* On the seeded-redundancy demo, raw coverage saturates below 1.0;
     dominance collapsing plus redundancy exclusion reaches exactly
     1.0. *)
  let c = Circuit.Generators.redundant_demo () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns (N.num_inputs c) in
  let profile = Fsim.Coverage.profile c universe patterns in
  Alcotest.(check bool) "raw saturates below 1" true
    (Fsim.Coverage.final_coverage profile < 1.0);
  let dominance = Faults.Universe.collapse_dominance c universe in
  let restricted = Fsim.Coverage.restrict c profile ~universe ~keep:dominance in
  Alcotest.(check bool) "dominance alone keeps the redundancy" true
    (Fsim.Coverage.final_coverage restricted < 1.0);
  let untestable = U.untestable_faults (U.prepare c) universe in
  let kept = Faults.Universe.exclude_untestable c dominance ~untestable in
  let corrected = Fsim.Coverage.restrict c profile ~universe ~keep:kept in
  Alcotest.(check (float 1e-9)) "dominance + exclusion reaches 1.0" 1.0
    (Fsim.Coverage.final_coverage corrected)

let test_restrict_validates () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let profile = Fsim.Coverage.profile c universe (Oracle.exhaustive_patterns 5) in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Coverage.restrict: universe does not match profile")
    (fun () ->
      ignore
        (Fsim.Coverage.restrict c profile
           ~universe:(Array.sub universe 0 10)
           ~keep:universe))

let test_sampling_with_dominance () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  let patterns = Oracle.exhaustive_patterns (N.num_inputs c) in
  let rng = Stats.Rng.create ~seed:5 () in
  let estimate =
    Fsim.Sampling.estimate_coverage ~collapse_dominance:true rng c universe
      ~sample_size:12 patterns
  in
  Alcotest.(check int) "sampled from the collapsed universe" 16
    estimate.Fsim.Sampling.universe_size;
  Alcotest.(check (float 1e-9)) "exhaustive sample coverage 1.0" 1.0
    estimate.Fsim.Sampling.coverage

let suite =
  [ ( "analysis",
      [ Alcotest.test_case "dominators = brute-force paths" `Quick
          test_dominators_brute_force;
        Alcotest.test_case "c17.bench fixed reference" `Quick
          test_c17_bench_reference;
        Alcotest.test_case "learning reaches a fixpoint" `Quick
          test_fixpoint_terminates;
        Alcotest.test_case "contrapositive closure" `Quick
          test_contrapositive_symmetry;
        Alcotest.test_case "learned constants on redundant_demo" `Quick
          test_learned_constants_on_redundant_demo;
        Alcotest.test_case "engine without learning" `Quick
          test_engine_without_learning;
        Alcotest.test_case "analysis lint proofs are sound" `Quick
          test_analysis_lint_soundness;
        Alcotest.test_case "dominance drops always covered" `Quick
          test_dominance_drop_property;
        Alcotest.test_case "dominance-collapsed coverage = 1.0" `Quick
          test_dominance_collapsed_coverage_one;
        Alcotest.test_case "restrict validates universe" `Quick
          test_restrict_validates;
        Alcotest.test_case "sampling with dominance collapse" `Quick
          test_sampling_with_dominance ] ) ]
