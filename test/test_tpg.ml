(* Tests for 5-valued logic, PODEM and the ATPG driver. *)

module F = Faults.Fault
module N = Circuit.Netlist
module L5 = Tpg.Logic5

(* ----------------------------- logic5 ------------------------------ *)

(* Every ternary vector of length [k], as planes. *)
let ternary_vectors k =
  let planes = [| L5.plane_0; L5.plane_1; L5.plane_x |] in
  let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1) in
  List.init (pow3 k) (fun code ->
      let code = ref code in
      Array.init k (fun _ ->
          let p = planes.(!code mod 3) in
          code := !code / 3;
          p))

(* The exact ternary value of one gate on one plane: defined exactly when
   every Boolean completion of the unknown pins agrees under
   [Gate.eval], and then equal to it. *)
let exact_plane kind ins =
  let unknown =
    List.filter (fun i -> ins.(i) = L5.plane_x) (List.init (Array.length ins) Fun.id)
  in
  let completions =
    List.init (1 lsl List.length unknown) (fun bits ->
        let b = Array.map (fun p -> p = L5.plane_1) ins in
        List.iteri (fun j i -> b.(i) <- (bits lsr j) land 1 = 1) unknown;
        Circuit.Gate.eval kind b)
  in
  if List.for_all Fun.id completions then L5.plane_1
  else if List.for_all not completions then L5.plane_0
  else L5.plane_x

let test_logic5_exhaustive_oracle () =
  let arities kind =
    match (Circuit.Gate.min_arity kind, Circuit.Gate.max_arity kind) with
    | 0, _ -> [ 0 ]
    | _, Some m -> List.init m (fun i -> i + 1)
    | _, None -> [ 1; 2; 3; 4; 5 ]
  in
  let kinds = List.filter (fun k -> k <> Circuit.Gate.Input) Circuit.Gate.all_kinds in
  List.iter
    (fun kind ->
      let name = Circuit.Gate.to_string kind in
      List.iter
        (fun k ->
          let fanins = Array.init k Fun.id in
          (* Each plane alone against the Boolean oracle, arities 1-5. *)
          List.iter
            (fun ins ->
              let expected = exact_plane kind ins in
              let on_good = Array.map (fun p -> L5.make ~good:p ~faulty:L5.plane_x) ins in
              let on_faulty =
                Array.map (fun p -> L5.make ~good:L5.plane_x ~faulty:p) ins
              in
              Alcotest.(check int) (name ^ " good plane") expected
                (L5.good (L5.eval kind on_good fanins));
              Alcotest.(check int) (name ^ " faulty plane") expected
                (L5.faulty (L5.eval kind on_faulty fanins)))
            (ternary_vectors k);
          (* Both planes at once, every 9-valued assignment at arity <= 3:
             the planes evaluate independently, and a branch-pin
             injection is evaluation with that pin's faulty plane
             replaced. *)
          if k <= 3 then
            List.iter
              (fun goods ->
                List.iter
                  (fun faultys ->
                    let values =
                      Array.map2 (fun g f -> L5.make ~good:g ~faulty:f) goods faultys
                    in
                    let v = L5.eval kind values fanins in
                    Alcotest.(check int) (name ^ " 9-valued good")
                      (exact_plane kind goods) (L5.good v);
                    Alcotest.(check int) (name ^ " 9-valued faulty")
                      (exact_plane kind faultys) (L5.faulty v);
                    for pin = 0 to k - 1 do
                      List.iter
                        (fun forced ->
                          let replaced = Array.copy values in
                          replaced.(pin) <- L5.with_faulty values.(pin) forced;
                          Alcotest.(check int) (name ^ " pin injection")
                            (L5.eval kind replaced fanins)
                            (L5.eval_with_pin kind values fanins ~pin ~faulty:forced))
                        [ L5.plane_0; L5.plane_1; L5.plane_x ]
                    done)
                  (ternary_vectors k))
              (ternary_vectors k))
        (arities kind))
    kinds;
  Alcotest.check_raises "Input has no logic function"
    (Invalid_argument "Logic5.eval: Input") (fun () ->
      ignore (L5.eval Circuit.Gate.Input [||] [||]))

(* A gate over a list of values, pin [i] reading value [i]. *)
let eval_list kind vs =
  L5.eval kind (Array.of_list vs) (Array.init (List.length vs) Fun.id)

let test_logic5_constants () =
  Alcotest.(check bool) "D is effect" true (L5.is_fault_effect L5.d);
  Alcotest.(check bool) "D' is effect" true (L5.is_fault_effect L5.dbar);
  Alcotest.(check bool) "1 is not" false (L5.is_fault_effect L5.one);
  Alcotest.(check bool) "X has unknown" true (L5.has_unknown L5.x);
  Alcotest.(check bool) "D has no unknown" false (L5.has_unknown L5.d);
  Alcotest.(check bool) "good 1/faulty X has unknown" true
    (L5.has_unknown (L5.make ~good:L5.plane_1 ~faulty:L5.plane_x))

let test_logic5_ternary_tables () =
  (* One plane's ternary tables, read on both machines. *)
  let check name kind ins expected =
    let v = eval_list kind (List.map (fun p -> L5.make ~good:p ~faulty:p) ins) in
    Alcotest.(check int) (name ^ " good") expected (L5.good v);
    Alcotest.(check int) (name ^ " faulty") expected (L5.faulty v)
  in
  let f, t, u = (L5.plane_0, L5.plane_1, L5.plane_x) in
  check "F and U = F" Circuit.Gate.And [ f; u ] f;
  check "T and U = U" Circuit.Gate.And [ t; u ] u;
  check "T or U = T" Circuit.Gate.Or [ t; u ] t;
  check "F or U = U" Circuit.Gate.Or [ f; u ] u;
  check "not U = U" Circuit.Gate.Not [ u ] u;
  check "T xor U = U" Circuit.Gate.Xor [ t; u ] u;
  check "T xor T = F" Circuit.Gate.Xor [ t; t ] f

let test_logic5_d_algebra () =
  let check name expected actual = Alcotest.(check int) name expected actual in
  check "AND(D,1)=D" L5.d (eval_list Circuit.Gate.And [ L5.d; L5.one ]);
  check "AND(D,0)=0" L5.zero (eval_list Circuit.Gate.And [ L5.d; L5.zero ]);
  check "AND(D,D')=0" L5.zero (eval_list Circuit.Gate.And [ L5.d; L5.dbar ]);
  check "XOR(D,D)=0" L5.zero (eval_list Circuit.Gate.Xor [ L5.d; L5.d ]);
  check "XOR(D,D')=1" L5.one (eval_list Circuit.Gate.Xor [ L5.d; L5.dbar ]);
  check "NOT(D)=D'" L5.dbar (eval_list Circuit.Gate.Not [ L5.d ]);
  check "OR(D',1)=1" L5.one (eval_list Circuit.Gate.Or [ L5.dbar; L5.one ]);
  (* The planes stay separate: NAND(D, X) is X on the good machine but
     1 on the faulty one. *)
  check "NAND(D,X)=X/1" (L5.make ~good:L5.plane_x ~faulty:L5.plane_1)
    (eval_list Circuit.Gate.Nand [ L5.d; L5.x ])

let test_logic5_consistent_with_bool () =
  (* On fully-defined values, 5-valued evaluation = boolean evaluation
     applied to each machine. *)
  let kinds =
    [ Circuit.Gate.And; Circuit.Gate.Nand; Circuit.Gate.Or; Circuit.Gate.Nor;
      Circuit.Gate.Xor; Circuit.Gate.Xnor ]
  in
  List.iter
    (fun kind ->
      for a = 0 to 3 do
        for b = 0 to 3 do
          (* encode 0..3 as (good, faulty) bit pairs *)
          let v code =
            L5.make
              ~good:(L5.plane_of_bool (code land 1 = 1))
              ~faulty:(L5.plane_of_bool (code land 2 = 2))
          in
          let result = eval_list kind [ v a; v b ] in
          let expected_good =
            Circuit.Gate.eval kind [| a land 1 = 1; b land 1 = 1 |]
          in
          let expected_faulty =
            Circuit.Gate.eval kind [| a land 2 = 2; b land 2 = 2 |]
          in
          Alcotest.(check int) "good plane" (L5.plane_of_bool expected_good)
            (L5.good result);
          Alcotest.(check int) "faulty plane" (L5.plane_of_bool expected_faulty)
            (L5.faulty result)
        done
      done)
    kinds

(* ------------------------------ podem ------------------------------ *)

let verify_test_detects c fault pattern =
  (Fsim.Serial.run c [| fault |] [| pattern |]).(0) <> None

let exhaustively_detectable c fault width =
  (Fsim.Serial.run c [| fault |] (Oracle.exhaustive_patterns width)).(0) <> None

(* Sound and complete on a circuit small enough for exhaustive ground truth. *)
let check_podem_on c width =
  let universe = Faults.Universe.all c in
  Array.iter
    (fun fault ->
      match Tpg.Podem.generate ~backtrack_limit:10_000 c fault with
      | Tpg.Podem.Test pattern, _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: generated test detects" (F.to_string c fault))
          true (verify_test_detects c fault pattern)
      | Tpg.Podem.Untestable, _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: redundancy claim is true" (F.to_string c fault))
          false (exhaustively_detectable c fault width)
      | Tpg.Podem.Aborted, _ ->
        Alcotest.failf "%s: aborted on a small circuit" (F.to_string c fault))
    universe

let test_podem_c17 () = check_podem_on (Circuit.Generators.c17 ()) 5

let test_podem_adder () = check_podem_on (Circuit.Generators.ripple_carry_adder ~bits:3) 7

let test_podem_mux () = check_podem_on (Circuit.Generators.mux_tree ~select_bits:2) 6

let test_podem_parity () = check_podem_on (Circuit.Generators.parity_tree ~bits:6) 6

let test_podem_random_circuits () =
  List.iter
    (fun seed ->
      check_podem_on
        (Circuit.Generators.random_circuit ~inputs:7 ~gates:60 ~outputs:4 ~seed)
        7)
    [ 10; 20; 30; 11; 21; 31 ];
  List.iter
    (fun seed ->
      check_podem_on
        (Circuit.Generators.random_circuit ~inputs:8 ~gates:70 ~outputs:5 ~seed)
        8)
    [ 51; 52 ]

let test_podem_finds_redundancy () =
  (* y = OR(a, AND(a, b)) — the AND gate is functionally redundant
     (absorption), so AND-output sa0 cannot be detected at y. *)
  let b = N.Builder.create ~name:"redundant" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ a; bb ] in
  let y = N.Builder.add_gate b ~name:"y" Circuit.Gate.Or [ a; g ] in
  N.Builder.mark_output b y;
  let c = N.Builder.build b in
  let fault = { F.site = F.Stem g; polarity = F.Stuck_at_0 } in
  (match Tpg.Podem.generate c fault with
  | Tpg.Podem.Untestable, _ -> ()
  | Tpg.Podem.Test _, _ -> Alcotest.fail "claimed a test for a redundant fault"
  | Tpg.Podem.Aborted, _ -> Alcotest.fail "aborted on a 2-gate circuit");
  (* Cross-check with exhaustive simulation. *)
  Alcotest.(check bool) "indeed undetectable" false (exhaustively_detectable c fault 2)

let test_podem_respects_backtrack_limit () =
  (* With limit 0 PODEM may abort but must not claim untestable wrongly
     or return a bogus test. *)
  let c = Circuit.Generators.array_multiplier ~bits:3 in
  let universe = Faults.Universe.all c in
  Array.iter
    (fun fault ->
      match Tpg.Podem.generate ~backtrack_limit:0 c fault with
      | Tpg.Podem.Test pattern, _ ->
        Alcotest.(check bool) "test valid" true (verify_test_detects c fault pattern)
      | Tpg.Podem.Untestable, _ ->
        Alcotest.(check bool) "sound redundancy" false (exhaustively_detectable c fault 6)
      | Tpg.Podem.Aborted, stats ->
        Alcotest.(check bool) "within budget" true (stats.Tpg.Podem.backtracks >= 1))
    universe

let test_podem_stats_populated () =
  let c = Circuit.Generators.c17 () in
  let fault = { F.site = F.Stem 5; polarity = F.Stuck_at_0 } in
  let _, stats = Tpg.Podem.generate c fault in
  Alcotest.(check bool) "did some implications" true (stats.Tpg.Podem.implications > 0)

(* One line [index mode pattern|U|A backtracks implications] per call
   of each [(mode, generate)] on each fault, in fault order. *)
let search_record faults modes =
  Array.to_list faults
  |> List.mapi (fun i fault ->
         List.map
           (fun (mode, generate) ->
             let verdict, stats = generate fault in
             let verdict =
               match verdict with
               | Tpg.Podem.Test p ->
                 String.init (Array.length p) (fun j -> if p.(j) then '1' else '0')
               | Tpg.Podem.Untestable -> "U"
               | Tpg.Podem.Aborted -> "A"
             in
             Printf.sprintf "%d %s %s %d %d" i mode verdict
               stats.Tpg.Podem.backtracks stats.Tpg.Podem.implications)
           modes)
  |> List.concat

let check_search_record golden actual =
  let expected =
    In_channel.with_open_text golden In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) (golden ^ ": one line per call") (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) (golden ^ ": search record") e a)
    expected actual

let collapsed c =
  Faults.Collapse.representatives
    (Faults.Collapse.equivalence c (Faults.Universe.all c))

(* The search record of every collapsed fault must match a checked-in
   golden byte for byte: any change to PODEM's decisions, not just to
   its verdicts, shows up here.  lsi:4 is searched under each guidance
   mode at limit 200.  The lot design (lsi_chip 1982 at scale 5) is
   searched at level guidance and limit 2000, so its 14 aborts run the
   full budget, a depth the lsi:4 record never reaches. *)
let test_podem_search_record_pinned () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let scoap = Tpg.Podem.Scoap_based (Tpg.Scoap.analyze c) in
  let analysis = Analysis.Engine.build ~learn_depth:(Some 1) c in
  check_search_record "expected/podem_lsi4.txt"
    (search_record (collapsed c)
       [ ("level", fun f -> Tpg.Podem.generate ~backtrack_limit:200 c f);
         ("scoap", fun f -> Tpg.Podem.generate ~backtrack_limit:200 ~guidance:scoap c f);
         ("analysis", fun f -> Tpg.Podem.generate ~backtrack_limit:200 ~analysis c f) ]);
  let lot = Circuit.Generators.lsi_chip ~seed:1982 ~scale:5 () in
  check_search_record "expected/podem_lot1982.txt"
    (search_record (collapsed lot)
       [ ("level", fun f -> Tpg.Podem.generate ~backtrack_limit:2000 lot f) ])

(* With an analysis engine, PODEM settles before search exactly the
   faults the engine's untestability prover flags: [Untestable] with 0
   backtracks and 0 implications (a search always counts at least one
   implication) iff the prover's verdict is [Some _]. *)
let test_podem_settles_prover_verdicts () =
  let random seed =
    ( Printf.sprintf "rand seed %d" seed,
      Circuit.Generators.random_circuit ~inputs:8 ~gates:70 ~outputs:5 ~seed )
  in
  List.iter
    (fun (name, c) ->
      let analysis = Analysis.Engine.build ~learn_depth:(Some 1) c in
      let prover = Analysis.Engine.untestable analysis in
      Array.iter
        (fun fault ->
          let verdict, stats =
            Tpg.Podem.generate ~backtrack_limit:100 ~analysis c fault
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s settled before search iff proved" name
               (F.to_string c fault))
            (Analysis.Untestable.verdict prover fault <> None)
            (verdict = Tpg.Podem.Untestable
            && stats.Tpg.Podem.backtracks = 0
            && stats.Tpg.Podem.implications = 0))
        (collapsed c))
    ([ ("lsi:5", Circuit.Generators.lsi_chip ~scale:5 ());
       ("lsi:6", Circuit.Generators.lsi_chip ~scale:6 ()) ]
    @ List.map random [ 1; 2; 3; 4 ])

(* ------------------------------ scoap ------------------------------- *)

let test_scoap_inverter_chain () =
  (* a -> NOT x -> NOT y: CC grows by one per level and swaps polarity
     through each inverter. *)
  let b = N.Builder.create ~name:"chain" in
  let a = N.Builder.add_input b "a" in
  let x = N.Builder.add_gate b ~name:"x" Circuit.Gate.Not [ a ] in
  let y = N.Builder.add_gate b ~name:"y" Circuit.Gate.Not [ x ] in
  N.Builder.mark_output b y;
  let c = N.Builder.build b in
  let t = Tpg.Scoap.analyze c in
  Alcotest.(check int) "PI cc0" 1 (Tpg.Scoap.cc0 t a);
  Alcotest.(check int) "PI cc1" 1 (Tpg.Scoap.cc1 t a);
  Alcotest.(check int) "x cc0 = cc1(a)+1" 2 (Tpg.Scoap.cc0 t x);
  Alcotest.(check int) "y cc0 = cc0(a)+2" 3 (Tpg.Scoap.cc0 t y);
  Alcotest.(check int) "PO observability" 0 (Tpg.Scoap.co t y);
  Alcotest.(check int) "x observability" 1 (Tpg.Scoap.co t x);
  Alcotest.(check int) "a observability" 2 (Tpg.Scoap.co t a)

let test_scoap_and_gate () =
  let b = N.Builder.create ~name:"and3" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let cc = N.Builder.add_input b "c" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ a; bb; cc ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let t = Tpg.Scoap.analyze c in
  Alcotest.(check int) "cc1 = sum + 1" 4 (Tpg.Scoap.cc1 t g);
  Alcotest.(check int) "cc0 = min + 1" 2 (Tpg.Scoap.cc0 t g);
  (* Observing input a requires b = c = 1: co = 0 + 1 + 1 + 1. *)
  Alcotest.(check int) "pin observability" 3 (Tpg.Scoap.co_pin t ~gate:g ~pin:0);
  Alcotest.(check int) "stem co of a" 3 (Tpg.Scoap.co t a)

let test_scoap_constants_saturate () =
  let b = N.Builder.create ~name:"const" in
  let k = N.Builder.add_const b "one" true in
  let a = N.Builder.add_input b "a" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.And [ k; a ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let t = Tpg.Scoap.analyze c in
  Alcotest.(check int) "const1 cc1 = 0" 0 (Tpg.Scoap.cc1 t k);
  Alcotest.(check bool) "const1 cc0 saturates" true
    (Tpg.Scoap.cc0 t k >= Tpg.Scoap.infinite)

let test_scoap_xor_controllability () =
  let b = N.Builder.create ~name:"xor2" in
  let a = N.Builder.add_input b "a" in
  let bb = N.Builder.add_input b "b" in
  let g = N.Builder.add_gate b ~name:"g" Circuit.Gate.Xor [ a; bb ] in
  N.Builder.mark_output b g;
  let c = N.Builder.build b in
  let t = Tpg.Scoap.analyze c in
  (* XOR: 0 via (0,0) or (1,1): cost 2 + 1; same for 1. *)
  Alcotest.(check int) "cc0" 3 (Tpg.Scoap.cc0 t g);
  Alcotest.(check int) "cc1" 3 (Tpg.Scoap.cc1 t g)

let test_scoap_fault_difficulty_ranks_depth () =
  (* In a long AND chain, the deep fault is harder than the shallow one. *)
  let b = N.Builder.create ~name:"deep" in
  let first = N.Builder.add_input b "x0" in
  let prev = ref first in
  for i = 1 to 10 do
    let extra = N.Builder.add_input b (Printf.sprintf "x%d" i) in
    prev := N.Builder.add_gate b Circuit.Gate.And [ !prev; extra ]
  done;
  N.Builder.mark_output b !prev;
  let c = N.Builder.build b in
  let t = Tpg.Scoap.analyze c in
  (* Output sa1: activate with any input 0, observe for free.  Deep
     input sa1: activate cheaply but observe through the whole chain. *)
  let shallow =
    Tpg.Scoap.fault_difficulty t c
      { Faults.Fault.site = Faults.Fault.Stem !prev; polarity = Faults.Fault.Stuck_at_1 }
  in
  let deep =
    Tpg.Scoap.fault_difficulty t c
      { Faults.Fault.site = Faults.Fault.Stem first; polarity = Faults.Fault.Stuck_at_1 }
  in
  Alcotest.(check bool) "deep PI fault harder" true (deep > shallow)

let test_scoap_hardest_faults () =
  let c = Circuit.Generators.array_multiplier ~bits:4 in
  let t = Tpg.Scoap.analyze c in
  let universe = Faults.Universe.all c in
  let hardest = Tpg.Scoap.hardest_faults t c universe ~count:5 in
  Alcotest.(check int) "five returned" 5 (List.length hardest);
  let difficulties = List.map snd hardest in
  let rec sorted_desc = function
    | a :: (b :: _ as rest) -> a >= b && sorted_desc rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted hardest-first" true (sorted_desc difficulties)

let test_podem_scoap_guidance_same_verdicts () =
  (* Guidance shapes the search, never the verdict. *)
  List.iter
    (fun seed ->
      let c = Circuit.Generators.random_circuit ~inputs:7 ~gates:60 ~outputs:4 ~seed in
      let scoap = Tpg.Scoap.analyze c in
      let universe = Faults.Universe.all c in
      Array.iter
        (fun fault ->
          let verdict_of (r, _) =
            match r with
            | Tpg.Podem.Test _ -> `Test
            | Tpg.Podem.Untestable -> `Untestable
            | Tpg.Podem.Aborted -> `Aborted
          in
          let level = verdict_of (Tpg.Podem.generate ~backtrack_limit:5000 c fault) in
          let scoap_guided =
            verdict_of
              (Tpg.Podem.generate ~backtrack_limit:5000
                 ~guidance:(Tpg.Podem.Scoap_based scoap) c fault)
          in
          Alcotest.(check bool) "same verdict" true (level = scoap_guided);
          (* And SCOAP-guided tests are still valid tests. *)
          match
            Tpg.Podem.generate ~guidance:(Tpg.Podem.Scoap_based scoap) c fault
          with
          | Tpg.Podem.Test pattern, _ ->
            Alcotest.(check bool) "valid test" true (verify_test_detects c fault pattern)
          | (Tpg.Podem.Untestable | Tpg.Podem.Aborted), _ -> ())
        universe)
    [ 41; 42 ]

let test_scoap_saturating_add () =
  let inf = Tpg.Scoap.infinite in
  (* [infinite = max_int / 4] leaves headroom: even a three-way sum of
     saturated costs is computed before the clamp without wrapping. *)
  Alcotest.(check int) "inf + inf = inf" inf (Tpg.Scoap.saturating_add inf inf);
  Alcotest.(check int) "inf + 1 = inf" inf (Tpg.Scoap.saturating_add inf 1);
  Alcotest.(check int) "1 + inf = inf" inf (Tpg.Scoap.saturating_add 1 inf);
  Alcotest.(check int) "0 + 0 = 0" 0 (Tpg.Scoap.saturating_add 0 0);
  Alcotest.(check int) "near clamp" inf (Tpg.Scoap.saturating_add (inf - 1) 2);
  Alcotest.(check int) "below clamp" (inf - 1)
    (Tpg.Scoap.saturating_add (inf - 3) 2);
  (* Never negative, never above infinite — i.e. no silent overflow. *)
  List.iter
    (fun (a, b) ->
      let s = Tpg.Scoap.saturating_add a b in
      Alcotest.(check bool) "in [0, infinite]" true (s >= 0 && s <= inf))
    [ (inf, inf); (inf - 1, inf - 1); (inf, 0); (12345, inf - 1) ];
  (* Fault difficulties inherit the bound. *)
  let c = Circuit.Generators.redundant_demo () in
  let t = Tpg.Scoap.analyze c in
  Array.iter
    (fun fault ->
      let d = Tpg.Scoap.fault_difficulty t c fault in
      Alcotest.(check bool) "difficulty in [0, infinite]" true (d >= 0 && d <= inf))
    (Faults.Universe.all c)

let test_scoap_export () =
  let c = Circuit.Generators.c17 () in
  let t = Tpg.Scoap.analyze c in
  let universe = Faults.Universe.all c in
  let count = 5 in
  let csv = Tpg.Scoap.hardest_to_csv t c universe ~count in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: rows ->
    Alcotest.(check string) "csv header" "fault,difficulty,saturated" header;
    Alcotest.(check int) "csv rows" count (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  match Tpg.Scoap.hardest_to_json t c universe ~count with
  | Report.Json.List entries ->
    Alcotest.(check int) "json entries" count (List.length entries);
    List.iter
      (function
        | Report.Json.Obj fields ->
          List.iter
            (fun key ->
              Alcotest.(check bool) key true (List.mem_assoc key fields))
            [ "fault"; "difficulty"; "saturated" ]
        | _ -> Alcotest.fail "entry is not an object")
      entries
  | _ -> Alcotest.fail "json export is not a list"

(* ---------------------------- random tpg ---------------------------- *)

let test_random_walk_shape () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let rng = Stats.Rng.create ~seed:8 () in
  let walk = Tpg.Random_tpg.random_walk rng c ~count:50 () in
  Alcotest.(check int) "count" 50 (Array.length walk);
  (* Consecutive patterns differ in at most 1 bit (flips=1), and are
     never more than 1 apart. *)
  for i = 1 to 49 do
    let differences = ref 0 in
    Array.iteri
      (fun j v -> if v <> walk.(i - 1).(j) then incr differences)
      walk.(i);
    Alcotest.(check bool) "hamming <= 1" true (!differences <= 1)
  done

let test_weighted_extremes () =
  let c = Circuit.Generators.c17 () in
  let rng = Stats.Rng.create ~seed:8 () in
  let all_zero = Tpg.Random_tpg.weighted rng c ~weights:(Array.make 5 0.0) ~count:10 in
  Array.iter
    (fun p -> Alcotest.(check bool) "all zero" true (Array.for_all not p))
    all_zero;
  let all_one = Tpg.Random_tpg.weighted rng c ~weights:(Array.make 5 1.0) ~count:10 in
  Array.iter
    (fun p -> Alcotest.(check bool) "all one" true (Array.for_all (fun b -> b) p))
    all_one

let test_until_coverage_reaches_target () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
  let universe = Faults.Universe.all c in
  let rng = Stats.Rng.create ~seed:31 () in
  let patterns, profile =
    Tpg.Random_tpg.until_coverage rng c universe ~target:0.9 ~max_patterns:2000
  in
  Alcotest.(check bool) "target reached" true
    (Fsim.Coverage.final_coverage profile >= 0.9);
  Alcotest.(check int) "profile matches patterns"
    (Array.length patterns) profile.Fsim.Coverage.pattern_count;
  (* The incremental bookkeeping must agree with a from-scratch grade. *)
  let fresh = Fsim.Coverage.profile c universe patterns in
  Alcotest.(check bool) "first detections identical" true
    (fresh.Fsim.Coverage.first_detection = profile.Fsim.Coverage.first_detection)

(* ------------------------------ atpg ------------------------------- *)

let test_atpg_full_coverage_small () =
  (* On irredundant circuits the flow must reach 100 % of detectable
     faults; c17 and a 4-bit ripple-carry adder have no redundancy at
     all. *)
  List.iter
    (fun c ->
      let universe = Faults.Universe.all c in
      let report = Tpg.Atpg.run c universe in
      Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Tpg.Atpg.coverage report);
      Alcotest.(check int) "no aborts" 0 report.Tpg.Atpg.aborted;
      Alcotest.(check int) "no redundancy" 0 report.Tpg.Atpg.untestable)
    [ Circuit.Generators.c17 (); Circuit.Generators.ripple_carry_adder ~bits:4 ]

let test_atpg_multiplier () =
  let c = Circuit.Generators.array_multiplier ~bits:4 in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let reps = Faults.Collapse.representatives classes in
  let report = Tpg.Atpg.run c reps in
  (* Coverage + untestable must account for everything (no aborts at
     this size). *)
  Alcotest.(check int) "no aborts" 0 report.Tpg.Atpg.aborted;
  let detected = Fsim.Coverage.detected_count report.Tpg.Atpg.profile in
  Alcotest.(check int) "detected + untestable = universe"
    (Array.length reps) (detected + report.Tpg.Atpg.untestable);
  (* Patterns actually deliver the claimed coverage under the
     independent serial engine. *)
  let verified = Fsim.Serial.run c reps report.Tpg.Atpg.patterns in
  let verified_count =
    Array.fold_left (fun acc d -> if d <> None then acc + 1 else acc) 0 verified
  in
  Alcotest.(check int) "serial agrees" detected verified_count

let test_atpg_profile_consistent () =
  let c = Circuit.Generators.alu ~bits:3 in
  let universe = Faults.Universe.all c in
  let report = Tpg.Atpg.run c universe in
  Alcotest.(check int) "profile sized to universe"
    (Array.length universe) report.Tpg.Atpg.profile.Fsim.Coverage.universe_size;
  Alcotest.(check int) "profile sized to patterns"
    (Array.length report.Tpg.Atpg.patterns)
    report.Tpg.Atpg.profile.Fsim.Coverage.pattern_count;
  (* First-detection indices are within range. *)
  Array.iter
    (function
      | Some k ->
        Alcotest.(check bool) "index in range" true
          (k >= 0 && k < Array.length report.Tpg.Atpg.patterns)
      | None -> ())
    report.Tpg.Atpg.profile.Fsim.Coverage.first_detection

(* Every PODEM pattern is graded against every fault still undetected,
   the aborts before it among them: the report's first detections are
   those of grading its own patterns from scratch.  On each circuit here
   some later pattern detects an earlier abort. *)
let test_atpg_profile_is_regrade () =
  let check name ?(config = Tpg.Atpg.default_config) c =
    let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
    let reps = Faults.Collapse.representatives classes in
    let report = Tpg.Atpg.run ~config c reps in
    Alcotest.(check bool) (name ^ ": profile = regrade") true
      (report.Tpg.Atpg.profile.Fsim.Coverage.first_detection
       = Fsim.Ppsfp.run c reps report.Tpg.Atpg.patterns)
  in
  check "lsi:8"
    ~config:{ Tpg.Atpg.default_config with seed = 1981 }
    (Circuit.Generators.lsi_chip ~scale:8 ());
  List.iter
    (fun seed ->
      check (Printf.sprintf "random netlist %d" seed)
        ~config:{ Tpg.Atpg.default_config with backtrack_limit = 4 }
        (Circuit.Generators.random_circuit ~inputs:12 ~gates:150 ~outputs:6 ~seed))
    [ 3; 11; 36 ]

let test_atpg_deterministic () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
  let universe = Faults.Universe.all c in
  let a = Tpg.Atpg.run c universe in
  let b = Tpg.Atpg.run c universe in
  Alcotest.(check bool) "same patterns" true (a.Tpg.Atpg.patterns = b.Tpg.Atpg.patterns)

let test_atpg_negative_learn_depth () =
  (* The depth is a config field whether or not an engine is built. *)
  let c = Circuit.Generators.c17 () in
  let universe = Faults.Universe.all c in
  List.iter
    (fun (name, config) ->
      Alcotest.check_raises name
        (Invalid_argument "Atpg.run: negative learn_depth") (fun () ->
          ignore
            (Tpg.Atpg.run ~config:{ config with Tpg.Atpg.learn_depth = -3 } c
               universe)))
    [ ("no engine", Tpg.Atpg.default_config);
      ("use_analysis", { Tpg.Atpg.default_config with use_analysis = true });
      ("exact", { Tpg.Atpg.default_config with exact_budget = Some 10_000 }) ]

(* ------------------------------- sat ------------------------------- *)

(* A random CNF over at most 12 variables, near the 3-SAT threshold so
   that both verdicts are common and many need search: clauses of mostly
   3 literals, some of 2 or 4, the empty one rare, with repeats and
   tautologies left in. *)
let random_cnf seed =
  let rng = Stats.Rng.create ~seed () in
  let vars = Stats.Rng.int_in rng 3 12 in
  let clauses = Stats.Rng.int_in rng (3 * vars) (6 * vars) in
  let clause () =
    let width =
      if Stats.Rng.int rng 500 = 0 then 0
      else match Stats.Rng.int rng 10 with 0 -> 2 | 9 -> 4 | _ -> 3
    in
    List.init width (fun _ ->
        let v = Stats.Rng.int_in rng 1 vars in
        if Stats.Rng.bool rng then v else -v)
  in
  (vars, List.init clauses (fun _ -> clause ()))

let satisfies value clause = List.exists (fun l -> value.(abs l) = (l > 0)) clause

(* Whether some assignment of [vars] variables satisfies every clause. *)
let brute_force_sat vars clauses =
  let rec from a =
    a < 1 lsl vars
    && (let value =
          Array.init (vars + 1) (fun v -> v > 0 && (a lsr (v - 1)) land 1 = 1)
        in
        List.for_all (satisfies value) clauses || from (a + 1))
  in
  from 0

let solver_of vars clauses =
  let s = Tpg.Sat.create () in
  for _ = 1 to vars do
    ignore (Tpg.Sat.new_var s)
  done;
  List.iter (Tpg.Sat.add_clause s) clauses;
  s

(* Pigeonhole: [holes + 1] pigeons in [holes] holes, unsatisfiable and
   hard for resolution. *)
let pigeonhole holes =
  let var p h = (p * holes) + h + 1 in
  let pigeons = holes + 1 in
  let some_hole = List.init pigeons (fun p -> List.init holes (var p)) in
  let no_sharing =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p ->
            List.init (pigeons - p - 1) (fun k -> [ -var p h; -var (p + k + 1) h ]))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (pigeons * holes, some_hole @ no_sharing)

let test_sat_edge_cases () =
  let verdict vars clauses = Tpg.Sat.solve (solver_of vars clauses) in
  Alcotest.(check bool) "no clauses: satisfiable" true
    (match verdict 3 [] with Tpg.Sat.Sat m -> Array.length m = 4 | _ -> false);
  Alcotest.(check bool) "empty clause: unsatisfiable" true
    (verdict 2 [ [ 1 ]; [] ] = Tpg.Sat.Unsat);
  Alcotest.(check bool) "opposite units: unsatisfiable" true
    (verdict 1 [ [ 1 ]; [ -1 ] ] = Tpg.Sat.Unsat);
  let s = solver_of 2 [ [ 1; -1 ]; [ 2; 2; -1 ] ] in
  Alcotest.(check int) "tautology dropped" 1 (Tpg.Sat.num_clauses s);
  Alcotest.check_raises "literal 0"
    (Invalid_argument "Sat.add_clause: no variable for literal 0")
    (fun () -> Tpg.Sat.add_clause s [ 0 ]);
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Sat.add_clause: no variable for literal -3")
    (fun () -> Tpg.Sat.add_clause s [ -3 ]);
  ignore (Tpg.Sat.solve s);
  Alcotest.check_raises "solved once"
    (Invalid_argument "Sat.solve: the solver has run")
    (fun () -> ignore (Tpg.Sat.solve s));
  let vars, clauses = pigeonhole 5 in
  let s = solver_of vars clauses in
  Alcotest.(check bool) "budget of one conflict" true
    (Tpg.Sat.solve ~conflict_budget:1 s = Tpg.Sat.Budget_out);
  Alcotest.(check int) "one conflict met" 1 (Tpg.Sat.conflicts s);
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.cancel cancel;
  Alcotest.(check bool) "cancelled" true
    (Tpg.Sat.solve ~cancel (solver_of vars clauses) = Tpg.Sat.Budget_out);
  let s = solver_of vars clauses in
  Alcotest.(check bool) "pigeonhole 6 in 5 unsatisfiable" true
    (Tpg.Sat.solve s = Tpg.Sat.Unsat);
  Alcotest.(check bool) "and it took conflicts" true (Tpg.Sat.conflicts s > 1)

(* A random netlist over [inputs] inputs with gates of every kind, of 1
   to 4 inputs, and constants, each reading one of the 8 nodes made
   last: it puts the Tseitin clauses of every kind under the exhaustive
   oracle.  Its last 3 nodes are outputs. *)
let random_wide_netlist ~seed ~inputs =
  let rng = Stats.Rng.create ~seed () in
  let b = N.Builder.create ~name:(Printf.sprintf "wide%d" seed) in
  let nodes =
    ref (List.init inputs (fun i -> N.Builder.add_input b (Printf.sprintf "x%d" i)))
  in
  let kinds =
    Circuit.Gate.[| Const0; Const1; Buf; Not; And; Nand; Or; Nor; Xor; Xnor |]
  in
  let gates = Stats.Rng.int_in rng 4 40 in
  for g = 1 to gates do
    let pool = Array.of_list !nodes in
    let pick () = pool.(Stats.Rng.int rng (min 8 (Array.length pool))) in
    let name = Printf.sprintf "g%d" g in
    let kind =
      kinds.(if Stats.Rng.int rng 12 = 0 then Stats.Rng.int rng 2
             else Stats.Rng.int_in rng 2 9)
    in
    let id =
      match kind with
      | Circuit.Gate.Const0 -> N.Builder.add_const b name false
      | Circuit.Gate.Const1 -> N.Builder.add_const b name true
      | Circuit.Gate.Buf | Circuit.Gate.Not -> N.Builder.add_gate b ~name kind [ pick () ]
      | kind ->
        N.Builder.add_gate b ~name kind
          (List.init (Stats.Rng.int_in rng 2 4) (fun _ -> pick ()))
    in
    nodes := id :: !nodes
  done;
  List.iteri (fun i id -> if i < 3 then N.Builder.mark_output b id) !nodes;
  N.Builder.build b

(* A conflict budget no proof here comes near. *)
let ample = 1_000_000

(* For every collapsed fault, the proof with an ample budget says
   untestable exactly when exhaustive simulation detects the fault with
   no input vector, and otherwise returns a test the fault simulator
   confirms. *)
let proof_matches_exhaustive c =
  let faults = collapsed c in
  let truth = Oracle.undetectable_exhaustive c faults in
  Array.for_all
    (fun fault ->
      match Tpg.Atpg.prove ~conflict_budget:ample c fault with
      | Tpg.Podem.Untestable -> Hashtbl.mem truth fault
      | Tpg.Podem.Test pattern ->
        (not (Hashtbl.mem truth fault)) && verify_test_detects c fault pattern
      | Tpg.Podem.Aborted -> false)
    faults

let test_sat_proof_workloads () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ ": proof = exhaustive") true
        (proof_matches_exhaustive c))
    (Oracle.workloads ())

(* On lsi:4, with an ample budget, the proof finds a test
   for every fault PODEM finds one for at the ATPG's limit and proves
   untestable every fault PODEM proves so.  A search with a smaller
   limit is a prefix of the same search: whatever PODEM settles within
   the first budget it settles identically, with the same effort, at
   the full one. *)
let test_sat_agrees_with_podem () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let limit = Tpg.Atpg.default_config.Tpg.Atpg.backtrack_limit in
  let proved = ref 0 in
  Array.iter
    (fun fault ->
      let name = F.to_string c fault in
      let full, full_stats = Tpg.Podem.generate ~backtrack_limit:limit c fault in
      let first, first_stats =
        Tpg.Podem.generate ~backtrack_limit:Tpg.Atpg.first_backtrack_limit c fault
      in
      if first <> Tpg.Podem.Aborted then
        Alcotest.(check bool) (name ^ ": first search is a prefix of the full one") true
          (first = full && first_stats = full_stats);
      match (full, Tpg.Atpg.prove ~conflict_budget:ample c fault) with
      | Tpg.Podem.Test _, Tpg.Podem.Test pattern ->
        Alcotest.(check bool) (name ^ ": model detects") true
          (verify_test_detects c fault pattern)
      | Tpg.Podem.Untestable, Tpg.Podem.Untestable -> incr proved
      | Tpg.Podem.Aborted, (Tpg.Podem.Test _ | Tpg.Podem.Untestable) -> ()
      | _, _ -> Alcotest.failf "%s: the proof disagrees with PODEM" name)
    (collapsed c);
  Alcotest.(check bool) "some faults untestable" true (!proved > 0)

(* The disjoint union of [a] and [b]: [a]'s nodes declared first, so
   they keep their ids and so every fault of [a] names the same line in
   the union; then [b]'s.  The union's inputs are [a]'s, then [b]'s. *)
let disjoint_union (a : N.t) (b : N.t) =
  let builder = N.Builder.create ~name:"union" in
  let copy prefix (c : N.t) =
    let ids = Array.make (N.num_nodes c) (-1) in
    Array.iteri
      (fun id kind ->
        let name = prefix ^ c.N.node_names.(id) in
        ids.(id) <-
          (match kind with
          | Circuit.Gate.Input -> N.Builder.add_input builder name
          | Circuit.Gate.Const0 -> N.Builder.add_const builder name false
          | Circuit.Gate.Const1 -> N.Builder.add_const builder name true
          | kind ->
            N.Builder.add_gate builder ~name kind
              (Array.to_list (Array.map (fun src -> ids.(src)) c.N.fanins.(id)))))
      c.N.kinds;
    Array.iter (fun o -> N.Builder.mark_output builder ids.(o)) c.N.outputs
  in
  copy "a." a;
  copy "b." b;
  N.Builder.build builder

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:20 ~name:"podem tests verified by fault simulation"
      (int_range 1 10_000)
      (fun seed ->
        let c =
          Circuit.Generators.random_circuit ~inputs:8 ~gates:80 ~outputs:5 ~seed
        in
        let universe = Faults.Universe.all c in
        let fault = universe.(seed mod Array.length universe) in
        match Tpg.Podem.generate c fault with
        | Tpg.Podem.Test pattern, _ -> verify_test_detects c fault pattern
        | Tpg.Podem.Untestable, _ ->
          not (exhaustively_detectable c fault 8)
        | Tpg.Podem.Aborted, _ -> true);
    Test.make ~count:300 ~name:"sat verdicts and models match brute force"
      (int_range 1 1_000_000)
      (fun seed ->
        let vars, clauses = random_cnf seed in
        match Tpg.Sat.solve ~conflict_budget:100_000 (solver_of vars clauses) with
        | Tpg.Sat.Sat value -> List.for_all (satisfies value) clauses
        | Tpg.Sat.Unsat -> not (brute_force_sat vars clauses)
        | Tpg.Sat.Budget_out -> false);
    Test.make ~count:20 ~name:"sat proof matches exhaustive simulation"
      (pair (int_range 1 16) (int_range 1 10_000))
      (fun (inputs, seed) ->
        proof_matches_exhaustive
          (Circuit.Generators.random_circuit ~inputs ~gates:(10 + (seed mod 60))
             ~outputs:(1 + (seed mod 4)) ~seed)
        && proof_matches_exhaustive (random_wide_netlist ~seed ~inputs:(min inputs 10)));
    (* Logic outside a fault's subcircuit never steers its search: on
       the disjoint union of [a] and [b], every fault of [a] gets the
       verdict, backtracks and implications it gets on [a] alone, and
       its test leaves [b]'s inputs at 0. *)
    Test.make ~count:25 ~name:"podem on a disjoint union equals podem on the part"
      (quad (int_range 1 10) (int_range 1 10) (int_range 1 10_000) (int_range 1 10_000))
      (fun (inputs_a, inputs_b, seed_a, seed_b) ->
        let a =
          Circuit.Generators.random_circuit ~inputs:inputs_a
            ~gates:(10 + (seed_a mod 50)) ~outputs:3 ~seed:seed_a
        in
        let b =
          Circuit.Generators.random_circuit ~inputs:inputs_b
            ~gates:(10 + (seed_b mod 50)) ~outputs:3 ~seed:seed_b
        in
        let union = disjoint_union a b in
        let b_zeros = Array.make (N.num_inputs b) false in
        Array.for_all
          (fun fault ->
            let alone, alone_stats = Tpg.Podem.generate a fault in
            let within, within_stats = Tpg.Podem.generate union fault in
            alone_stats = within_stats
            &&
            match (alone, within) with
            | Tpg.Podem.Test p, Tpg.Podem.Test q -> q = Array.append p b_zeros
            | Tpg.Podem.Untestable, Tpg.Podem.Untestable
            | Tpg.Podem.Aborted, Tpg.Podem.Aborted ->
              true
            | _ -> false)
          (Faults.Universe.all a)) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "tpg.logic5",
      [ tc "constants" test_logic5_constants;
        tc "ternary tables" test_logic5_ternary_tables;
        tc "D-algebra" test_logic5_d_algebra;
        tc "consistent with boolean planes" test_logic5_consistent_with_bool;
        tc "exhaustive oracle" test_logic5_exhaustive_oracle ] );
    ( "tpg.podem",
      [ tc "c17 sound and complete" test_podem_c17;
        tc "adder sound and complete" test_podem_adder;
        tc "mux sound and complete" test_podem_mux;
        tc "parity sound and complete" test_podem_parity;
        tc "random circuits sound and complete" test_podem_random_circuits;
        tc "proves absorption redundancy" test_podem_finds_redundancy;
        tc "respects backtrack limit" test_podem_respects_backtrack_limit;
        tc "stats populated" test_podem_stats_populated;
        tc "per-fault search record pinned" test_podem_search_record_pinned;
        tc "settles before search what the prover flags"
          test_podem_settles_prover_verdicts ] );
    ( "tpg.sat",
      [ tc "edge cases, budget and cancel" test_sat_edge_cases;
        tc "proof matches exhaustive simulation" test_sat_proof_workloads;
        tc "proof agrees with PODEM on lsi:4" test_sat_agrees_with_podem ] );
    ( "tpg.scoap",
      [ tc "inverter chain" test_scoap_inverter_chain;
        tc "and gate rules" test_scoap_and_gate;
        tc "constants saturate" test_scoap_constants_saturate;
        tc "xor controllability" test_scoap_xor_controllability;
        tc "difficulty ranks depth" test_scoap_fault_difficulty_ranks_depth;
        tc "hardest faults sorted" test_scoap_hardest_faults;
        tc "podem guidance preserves verdicts" test_podem_scoap_guidance_same_verdicts;
        tc "saturating add clamps" test_scoap_saturating_add;
        tc "hardest-fault export" test_scoap_export ] );
    ( "tpg.random",
      [ tc "random walk hamming" test_random_walk_shape;
        tc "weighted extremes" test_weighted_extremes;
        tc "until_coverage incremental = fresh" test_until_coverage_reaches_target ] );
    ( "tpg.atpg",
      [ tc "c17 full coverage" test_atpg_full_coverage_small;
        tc "multiplier accounted" test_atpg_multiplier;
        tc "profile consistent" test_atpg_profile_consistent;
        tc "profile equals a regrade" test_atpg_profile_is_regrade;
        tc "deterministic" test_atpg_deterministic;
        tc "negative learn_depth rejected" test_atpg_negative_learn_depth ] );
    ( "tpg.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
