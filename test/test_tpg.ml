(* Tests for 5-valued logic, PODEM and the ATPG driver. *)

module F = Faults.Fault
module N = Circuit.Netlist
module L5 = Tpg.Logic5

let exhaustive_patterns width =
  Array.init (1 lsl width) (fun v ->
      Array.init width (fun i -> (v lsr i) land 1 = 1))

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
  (Fsim.Serial.run c [| fault |] (exhaustive_patterns width)).(0) <> None

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

(* The search record of every collapsed lsi:4 fault under each guidance
   mode — one line [index mode pattern|U|A backtracks implications] per
   call — must match the checked-in golden byte for byte: any change to
   PODEM's decisions, not just to its verdicts, shows up here. *)
let test_podem_search_record_pinned () =
  let c = Circuit.Generators.lsi_chip ~scale:4 () in
  let reps =
    Faults.Collapse.representatives
      (Faults.Collapse.equivalence c (Faults.Universe.all c))
  in
  let scoap = Tpg.Podem.Scoap_based (Tpg.Scoap.analyze c) in
  let analysis = Analysis.Engine.build ~learn_depth:(Some 1) c in
  let modes =
    [ ("level", fun f -> Tpg.Podem.generate ~backtrack_limit:200 c f);
      ("scoap", fun f -> Tpg.Podem.generate ~backtrack_limit:200 ~guidance:scoap c f);
      ("analysis", fun f -> Tpg.Podem.generate ~backtrack_limit:200 ~analysis c f) ]
  in
  let actual =
    Array.to_list reps
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
  in
  let expected =
    In_channel.with_open_text "expected/podem_lsi4.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per call" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "search record" e a) expected actual

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

let test_atpg_deterministic () =
  let c = Circuit.Generators.ripple_carry_adder ~bits:4 in
  let universe = Faults.Universe.all c in
  let a = Tpg.Atpg.run c universe in
  let b = Tpg.Atpg.run c universe in
  Alcotest.(check bool) "same patterns" true (a.Tpg.Atpg.patterns = b.Tpg.Atpg.patterns)

let test_atpg_hybrid_cutover () =
  (* A 5-to-32 decoder is the canonical random-pattern-resistant
     circuit: most faults need one specific minterm on the select
     lines.  The hybrid flow must cut the random phase short at the
     statically predicted knee and still reach at least the coverage
     of a pure-random run over the full budget, with fewer patterns. *)
  let c = Circuit.Generators.decoder ~bits:5 in
  let classes = Faults.Collapse.equivalence c (Faults.Universe.all c) in
  let reps = Faults.Collapse.representatives classes in
  let budget = 1024 in
  let config =
    { Tpg.Atpg.default_config with
      random_budget = budget;
      random_target = 1.0;
      hybrid = true;
      resistant_threshold = 0.02 }
  in
  let report = Tpg.Atpg.run ~config c reps in
  (match report.Tpg.Atpg.predicted_cutover with
  | Some n ->
    Alcotest.(check bool) "cutover within budget" true (n >= 0 && n <= budget);
    Alcotest.(check bool) "cutover on a block boundary" true (n mod 64 = 0);
    Alcotest.(check bool) "random phase capped" true
      (report.Tpg.Atpg.random_patterns <= n)
  | None -> Alcotest.fail "hybrid mode must predict a cutover");
  (* Pure-random baseline: same seed family, full budget. *)
  let rng = Stats.Rng.create ~seed:config.Tpg.Atpg.seed () in
  let pure = Tpg.Random_tpg.uniform rng c ~count:budget in
  let pure_profile = Fsim.Coverage.profile c reps pure in
  Alcotest.(check bool) "hybrid coverage >= pure random" true
    (Tpg.Atpg.coverage report >= Fsim.Coverage.final_coverage pure_profile);
  Alcotest.(check bool) "hybrid uses fewer patterns" true
    (Array.length report.Tpg.Atpg.patterns < budget);
  (* Off by default: no cutover is predicted, behaviour unchanged. *)
  let plain = Tpg.Atpg.run c reps in
  Alcotest.(check bool) "predicted_cutover off by default" true
    (plain.Tpg.Atpg.predicted_cutover = None)

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
        | Tpg.Podem.Aborted, _ -> true) ]

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
        tc "per-fault search record pinned" test_podem_search_record_pinned ] );
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
        tc "deterministic" test_atpg_deterministic;
        tc "hybrid cutover" test_atpg_hybrid_cutover ] );
    ( "tpg.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
