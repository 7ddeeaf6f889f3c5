(* Tests for the fault universe and equivalence collapsing. *)

module F = Faults.Fault
module N = Circuit.Netlist

let test_universe_size () =
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  Alcotest.(check int) "2 x 23 lines" 46 (Array.length universe);
  Alcotest.(check int) "count agrees" (Faults.Universe.count c)
    (Array.length universe)

let test_universe_distinct () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let universe = Faults.Universe.all c in
  let seen = Hashtbl.create (Array.length universe) in
  Array.iter
    (fun fault ->
      Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen fault);
      Hashtbl.replace seen fault ())
    universe

let test_universe_deterministic_order () =
  let c = Circuit.Generators.c17 () in
  let a = Faults.Universe.all c and b = Faults.Universe.all c in
  Alcotest.(check bool) "same order" true (a = b)

let test_stems_only_size () =
  let c = Circuit.Generators.c17 () in
  Alcotest.(check int) "2 per node" (2 * N.num_nodes c)
    (Array.length (Faults.Universe.stems_only c))

let test_checkpoint_subset () =
  let c = Circuit.Generators.c17 () in
  let all = Faults.Universe.all c in
  let cp = Faults.Universe.checkpoint c in
  Array.iter
    (fun fault ->
      Alcotest.(check bool) "checkpoint in universe" true
        (Array.exists (fun g -> F.equal fault g) all))
    cp;
  (* c17 checkpoints: 5 PI stems + fanout branches. G3, G11, G16 have
     fanout 2, so 6 branch lines -> (5 + 6) * 2 = 22 faults. *)
  Alcotest.(check int) "c17 checkpoint count" 22 (Array.length cp)

let test_fault_to_string () =
  let c = Circuit.Generators.c17 () in
  let g10 = match N.find_node c "G10" with Some id -> id | None -> assert false in
  Alcotest.(check string) "stem" "G10/sa0"
    (F.to_string c { F.site = F.Stem g10; polarity = F.Stuck_at_0 });
  Alcotest.(check string) "branch" "G10.in1/sa1"
    (F.to_string c { F.site = F.Branch { gate = g10; pin = 1 }; polarity = F.Stuck_at_1 })

(* The dense id is the position in [Universe.all], in the documented
   order: c17's first gate G10 follows the five input stems. *)
let test_fault_dense_id () =
  let c17 = Circuit.Generators.c17 () in
  let g10 = Array.sub (Faults.Universe.all c17) 10 6 in
  Alcotest.(check (list string)) "c17 order"
    [ "G10/sa0"; "G10/sa1"; "G10.in1/sa0"; "G10.in1/sa1"; "G10.in0/sa0";
      "G10.in0/sa1" ]
    (Array.to_list (Array.map (F.to_string c17) g10));
  List.iter
    (fun c ->
      Array.iteri
        (fun i fault ->
          Alcotest.(check int) (F.to_string c fault) i (F.id c fault))
        (Faults.Universe.all c))
    (c17
    :: List.map
         (fun seed ->
           Circuit.Generators.random_circuit ~inputs:6 ~gates:40 ~outputs:3 ~seed)
         [ 1; 2; 3 ]);
  let bad = { F.site = F.Branch { gate = 0; pin = 0 }; polarity = F.Stuck_at_1 } in
  Alcotest.(check bool) "an input has no pins" false (F.is_line c17 bad);
  Alcotest.check_raises "id of a malformed fault"
    (Invalid_argument "malformed fault G1.in0/sa1: node has no input pins")
    (fun () -> ignore (F.id c17 bad))

let test_polarity_helpers () =
  Alcotest.(check bool) "sa0 bit" false (F.polarity_bit F.Stuck_at_0);
  Alcotest.(check bool) "sa1 bit" true (F.polarity_bit F.Stuck_at_1);
  Alcotest.(check bool) "opposite" true (F.opposite F.Stuck_at_0 = F.Stuck_at_1)

(* --------------------------- collapsing ---------------------------- *)

let test_collapse_counts_single_and2 () =
  (* One AND2: universe = stems a,b,g + pins g.0,g.1 = 5 lines, 10 faults.
     Equivalences: a/sa0 ~ g.0/sa0 ~ g/sa0 ~ g.1/sa1... no wait:
     - fanout-1 drivers: a ~ g.in0, b ~ g.in1 (both polarities): merges 4 pairs.
     - AND rule: in0/sa0 ~ out/sa0, in1/sa0 ~ out/sa0.
     Classes: {a0, g.in0 sa0, g sa0, b0, g.in1 sa0} (all one class),
     {a1, g.in0 sa1}, {b1, g.in1 sa1}, {g sa1} -> 4 classes. *)
  let b = N.Builder.create ~name:"and2" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ a; bb ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let universe = Faults.Universe.all c in
  Alcotest.(check int) "10 faults" 10 (Array.length universe);
  let classes = Faults.Collapse.equivalence c universe in
  Alcotest.(check int) "4 classes" 4 (Faults.Collapse.class_count classes)

let test_collapse_counts_inverter_chain () =
  (* a -> NOT x -> NOT y (output). All 6 line-ends collapse into 2
     classes (one per polarity seen from the output). *)
  let b = N.Builder.create ~name:"chain" in
  let a = N.Builder.add_input b "a" in
  let x = N.Builder.add_gate b ~name:"x" Circuit.Gate.Not [ a ] in
  let y = N.Builder.add_gate b ~name:"y" Circuit.Gate.Not [ x ] in
  N.Builder.mark_output b y;
  let c = N.Builder.build b in
  let universe = Faults.Universe.all c in
  Alcotest.(check int) "10 faults" 10 (Array.length universe);
  let classes = Faults.Collapse.equivalence c universe in
  Alcotest.(check int) "2 classes" 2 (Faults.Collapse.class_count classes)

let test_collapse_xor_no_local_rule () =
  (* XOR gates admit no controlling-value equivalence; only the
     fanout-1 stem/branch merges apply. *)
  let b = N.Builder.create ~name:"xor2" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.Xor [ a; bb ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  (* 10 faults; merges: a~in0 (2), b~in1 (2) -> 6 classes. *)
  Alcotest.(check int) "6 classes" 6 (Faults.Collapse.class_count classes)

let test_collapse_ratio_bounds () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let ratio = Faults.Collapse.collapse_ratio classes in
  Alcotest.(check bool) "meaningful reduction" true (ratio > 0.3 && ratio < 0.9)

(* On the full and on reduced universes: the members partition the
   given universe, each fault's class holds it, each representative is
   in its own class, and a fault of the circuit left out of the
   universe has no class. *)
let test_collapse_members_partition () =
  let check_partition name c universe =
    let classes = Faults.Collapse.equivalence c universe in
    let sorted faults = List.map (F.to_string c) (List.sort F.compare faults) in
    let members =
      List.init (Faults.Collapse.class_count classes) (fun cls ->
          let members = Faults.Collapse.class_members classes cls in
          List.iter
            (fun fault ->
              Alcotest.(check int) (name ^ ": member in its class") cls
                (Faults.Collapse.class_of classes fault))
            members;
          members)
    in
    Alcotest.(check (list string)) (name ^ ": members partition the universe")
      (sorted (Array.to_list universe)) (sorted (List.concat members));
    Array.iteri
      (fun i rep ->
        Alcotest.(check int) (name ^ ": rep in own class") i
          (Faults.Collapse.class_of classes rep))
      (Faults.Collapse.representatives classes);
    Array.iter
      (fun fault ->
        if not (Array.mem fault universe) then
          Alcotest.check_raises
            (Printf.sprintf "%s: %s left out" name (F.to_string c fault))
            Not_found
            (fun () -> ignore (Faults.Collapse.class_of classes fault)))
      (Faults.Universe.all c)
  in
  List.iter
    (fun (name, c) ->
      check_partition (name ^ " all") c (Faults.Universe.all c);
      check_partition (name ^ " checkpoint") c (Faults.Universe.checkpoint c);
      check_partition (name ^ " stems only") c (Faults.Universe.stems_only c))
    [ ("c17", Circuit.Generators.c17 ());
      ( "random",
        Circuit.Generators.random_circuit ~inputs:6 ~gates:40 ~outputs:3 ~seed:4 ) ]

let test_collapse_class_of_unknown () =
  let c = Circuit.Generators.c17 () in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  Alcotest.check_raises "unknown fault" Not_found (fun () ->
      ignore
        (Faults.Collapse.class_of classes
           { F.site = F.Stem 9999; polarity = F.Stuck_at_0 }))

let test_collapse_malformed_universe () =
  let c = Circuit.Generators.c17 () in
  let universe =
    Array.append (Faults.Universe.all c)
      [| { F.site = F.Stem 999; polarity = F.Stuck_at_0 } |]
  in
  Alcotest.check_raises "stem outside the circuit"
    (Invalid_argument "malformed fault #999/sa0: node 999 outside [0, 11)")
    (fun () -> ignore (Faults.Collapse.equivalence c universe))

(* No golden shows the collapse directly, so pin it: for each design,
   the hex digest of the representatives, the dominance survivors, the
   dominance drops with their dominators, and the class sizes. *)
let collapse_digests c =
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let faults fs = String.concat " " (List.map (F.to_string c) fs) in
  let hex s = Digest.to_hex (Digest.string s) in
  [ hex (faults (Array.to_list (Faults.Collapse.representatives classes)));
    hex (faults (Array.to_list (Faults.Collapse.dominance c classes)));
    hex
      (String.concat "\n"
         (List.map
            (fun (dropped, dominators) -> faults (dropped :: dominators))
            (Faults.Collapse.dominance_drops c classes)));
    hex
      (String.concat " "
         (List.init (Faults.Collapse.class_count classes) (fun cls ->
              string_of_int
                (List.length (Faults.Collapse.class_members classes cls))))) ]

let pinned_collapse_digests =
  [ ( "lsi_chip 1981 x12",
      [ "93b6e929247cd7d0f75e7e631de59311"; "40048e8e581bde884fd36defe7d2f43b";
        "61776e69e861f841029b1684fef31699"; "b25166b83eb684204e894cd77aef8e87" ] );
    ( "lsi_chip 1982 x12",
      [ "5b8550095dd0dd072cae998ed0972bda"; "f6b9ae584cdf21bcc0c7e007b01b9dba";
        "00112a2e71ff60f6468dc20968ba0b98"; "1a5a15f104e0de1373823185faf42a9a" ] );
    ( "lsi_chip 1983 x12",
      [ "c78dd9b3cd2ca4de7b0199041de5afa6"; "033c550946c562d0e18aff878267f29e";
        "f19f38001b04debb6177f6ad024b2890"; "d769643d26b2826e7fa0ffdf8b6bf1b2" ] );
    ( "lsi_chip 1984 x12",
      [ "33a4012fdf96c946d00a967018f93b3e"; "f9b4a9ea2179e3a9bbae89c9cff048af";
        "96b7691d958afff9c1b270245e8669d0"; "40cdda68b35f41e8de7c3bd28f6f48ad" ] );
    ( "lsi:6",
      [ "b888da1624c6d3d27868aa599f8c8a3f"; "353f724c00bbfca68abd2980f2057027";
        "a0de2b98d2dab7865b8739c74a2dff3c"; "19f4fe08df6d53e0091be539d31173dc" ] ) ]

let test_collapse_pinned () =
  let designs =
    List.map
      (fun seed -> Circuit.Generators.lsi_chip ~seed ~scale:12 ())
      [ 1981; 1982; 1983; 1984 ]
    @ [ Circuit.Generators.lsi_chip ~scale:6 () ]
  in
  List.iter2
    (fun c (name, expected) ->
      Alcotest.(check (list string)) name expected (collapse_digests c))
    designs pinned_collapse_digests

(* Soundness: all members of a class have identical detection sets
   under exhaustive patterns. *)
let detection_signature c fault patterns =
  Array.map
    (fun pattern ->
      match Fsim.Serial.run c [| fault |] [| pattern |] with
      | [| Some _ |] -> true
      | [| None |] -> false
      | _ -> assert false)
    patterns

let test_collapse_soundness_exhaustive () =
  List.iter
    (fun seed ->
      let c =
        Circuit.Generators.random_circuit ~inputs:6 ~gates:40 ~outputs:3 ~seed
      in
      let patterns = Oracle.exhaustive_patterns 6 in
      let universe = Faults.Universe.all c in
      let classes = Faults.Collapse.equivalence c universe in
      for cls = 0 to Faults.Collapse.class_count classes - 1 do
        match Faults.Collapse.class_members classes cls with
        | [] -> Alcotest.fail "empty class"
        | first :: rest ->
          let reference = detection_signature c first patterns in
          List.iter
            (fun fault ->
              Alcotest.(check bool)
                (Printf.sprintf "class %d member %s" cls (F.to_string c fault))
                true
                (detection_signature c fault patterns = reference))
            rest
      done)
    [ 1; 2; 3 ]

(* --------------------------- dominance ----------------------------- *)

let test_dominance_reduces () =
  let c = Circuit.Generators.c17 () in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let eq_reps = Faults.Collapse.representatives classes in
  let dom_reps = Faults.Collapse.dominance c classes in
  Alcotest.(check bool) "strictly smaller" true
    (Array.length dom_reps < Array.length eq_reps);
  (* Every dominance representative is an equivalence representative. *)
  Array.iter
    (fun fault ->
      Alcotest.(check bool) "subset" true
        (Array.exists (fun g -> F.equal fault g) eq_reps))
    dom_reps

let test_dominance_and2 () =
  (* Single AND2: equivalence leaves 4 classes; dominance drops the
     class of out/sa1?  No: out/sa1 is its own class and is dominated
     by in_j/sa1 -> 3 classes remain. *)
  let b = N.Builder.create ~name:"and2" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ a; bb ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let dom = Faults.Collapse.dominance c classes in
  Alcotest.(check int) "3 dominance classes" 3 (Array.length dom);
  (* The dropped one is g/sa1's class. *)
  Alcotest.(check bool) "out sa1 dropped" false
    (Array.exists
       (fun f -> F.equal f { F.site = F.Stem g; polarity = F.Stuck_at_1 })
       dom)

(* Completeness: a pattern set detecting all dominance representatives
   detects every detectable fault of the full universe (irredundant
   circuits). *)
let test_dominance_detection_complete () =
  List.iter
    (fun seed ->
      let c =
        Circuit.Generators.random_circuit ~inputs:7 ~gates:50 ~outputs:4 ~seed
      in
      let universe = Faults.Universe.all c in
      let classes = Faults.Collapse.equivalence c universe in
      let dom = Faults.Collapse.dominance c classes in
      let patterns = Oracle.exhaustive_patterns 7 in
      (* Build a minimal-ish pattern set covering the dominance reps:
         take, for each dominance rep, its first detecting pattern. *)
      let dom_first = Fsim.Serial.run c dom patterns in
      let chosen = Hashtbl.create 16 in
      Array.iter
        (function Some k -> Hashtbl.replace chosen k () | None -> ())
        dom_first;
      let subset =
        Hashtbl.fold (fun k () acc -> k :: acc) chosen []
        |> List.sort compare
        |> List.map (fun k -> patterns.(k))
        |> Array.of_list
      in
      (* Every fault detectable under exhaustive patterns must be
         detected by the subset. *)
      let full_exhaustive = Fsim.Serial.run c universe patterns in
      let full_subset = Fsim.Serial.run c universe subset in
      Array.iteri
        (fun i d ->
          if d <> None && full_subset.(i) = None then
            Alcotest.failf "dominance lost %s (seed %d)"
              (F.to_string c universe.(i)) seed)
        full_exhaustive)
    [ 11; 12; 13 ]

(* Dominance over the equivalence representatives drops what it drops
   over the full universe, even where the dominated gate output is not
   its class's representative and so is absent from the reduced one. *)
let test_dominance_reduced_universe () =
  let designs =
    ("lsi:12", Circuit.Generators.lsi_chip ~scale:12 ())
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random seed %d" seed,
             Circuit.Generators.random_circuit ~inputs:8 ~gates:80 ~outputs:4 ~seed ))
         [ 21; 22; 23; 24; 25; 26 ]
  in
  List.iter
    (fun (name, c) ->
      let names faults = Array.to_list (Array.map (F.to_string c) faults) in
      let universe = Faults.Universe.all c in
      let classes = Faults.Collapse.equivalence c universe in
      let full = Faults.Universe.collapse_dominance c universe in
      Alcotest.(check (list string)) (name ^ ": full universe")
        (names (Faults.Collapse.dominance c classes)) (names full);
      Alcotest.(check (list string)) (name ^ ": representatives") (names full)
        (names
           (Faults.Universe.collapse_dominance c
              (Faults.Collapse.representatives classes))))
    designs

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "faults.universe",
      [ tc "size = 2 x lines" test_universe_size;
        tc "no duplicates" test_universe_distinct;
        tc "deterministic order" test_universe_deterministic_order;
        tc "stems-only size" test_stems_only_size;
        tc "checkpoint subset" test_checkpoint_subset;
        tc "to_string" test_fault_to_string;
        tc "dense id = position in all" test_fault_dense_id;
        tc "polarity helpers" test_polarity_helpers ] );
    ( "faults.collapse",
      [ tc "AND2 classes" test_collapse_counts_single_and2;
        tc "inverter chain classes" test_collapse_counts_inverter_chain;
        tc "XOR keeps pins separate" test_collapse_xor_no_local_rule;
        tc "ratio in sane band" test_collapse_ratio_bounds;
        tc "classes partition universe" test_collapse_members_partition;
        tc "unknown fault raises" test_collapse_class_of_unknown;
        tc "malformed universe raises" test_collapse_malformed_universe;
        tc "pinned digests (lsi_chip 1981-1984 x12, lsi:6)" test_collapse_pinned;
        tc "soundness (exhaustive detection sets)" test_collapse_soundness_exhaustive ] );
    ( "faults.dominance",
      [ tc "reduces below equivalence" test_dominance_reduces;
        tc "AND2 drops out/sa1" test_dominance_and2;
        tc "detection-complete on irredundant circuits" test_dominance_detection_complete;
        tc "reduced universe drops as the full one" test_dominance_reduced_universe ] ) ]
