(* Differential tests of the packed simulator against the reference one. *)

module N = Circuit.Netlist

let random_inputs rng width = Array.init width (fun _ -> Stats.Rng.bool rng)

let check_packed_matches_ref c ~seed ~count =
  let rng = Stats.Rng.create ~seed () in
  let width = N.num_inputs c in
  let patterns = Array.init count (fun _ -> random_inputs rng width) in
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  let base = ref 0 in
  List.iter
    (fun block ->
      let values = Logicsim.Packed.eval_block c block in
      for i = 0 to block.Logicsim.Packed.pattern_count - 1 do
        let expected = Logicsim.Refsim.eval c patterns.(!base + i) in
        Array.iteri
          (fun id v ->
            Alcotest.(check bool) "node value" v (Logicsim.Packed.bit values.(id) i))
          expected
      done;
      base := !base + block.Logicsim.Packed.pattern_count)
    blocks

let test_packed_matches_ref () =
  check_packed_matches_ref (Circuit.Generators.lsi_chip ~scale:4 ()) ~seed:101 ~count:100;
  check_packed_matches_ref
    (Circuit.Generators.random_circuit ~inputs:14 ~gates:400 ~outputs:10 ~seed:4)
    ~seed:102 ~count:200

let test_packed_live_mask () =
  let c = Circuit.Generators.c17 () in
  let block =
    Logicsim.Packed.block_of_patterns c [| Array.make 5 false; Array.make 5 true |]
  in
  Alcotest.(check int64) "mask of 2" 3L (Logicsim.Packed.live_mask block);
  let full =
    Logicsim.Packed.block_of_patterns c
      (Array.init 64 (fun _ -> Array.make 5 false))
  in
  Alcotest.(check int64) "mask of 64" (-1L) (Logicsim.Packed.live_mask full)

let test_packed_block_splitting () =
  let c = Circuit.Generators.c17 () in
  let patterns = Array.init 130 (fun i -> Array.make 5 (i mod 2 = 0)) in
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  Alcotest.(check int) "3 blocks" 3 (List.length blocks);
  Alcotest.(check (list int)) "block sizes" [ 64; 64; 2 ]
    (List.map (fun b -> b.Logicsim.Packed.pattern_count) blocks)

let test_packed_rejects_bad_widths () =
  let c = Circuit.Generators.c17 () in
  Alcotest.(check bool) "wrong width" true
    (try
       ignore (Logicsim.Packed.block_of_patterns c [| Array.make 4 false |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty" true
    (try
       ignore (Logicsim.Packed.block_of_patterns c [||]);
       false
     with Invalid_argument _ -> true)

let test_refsim_overrides () =
  let c = Circuit.Generators.c17 () in
  (* Force G16 (fans out to both outputs) to 1 and check downstream. *)
  let g16 =
    match N.find_node c "G16" with Some id -> id | None -> Alcotest.fail "no G16"
  in
  let inputs = Array.make 5 false in
  let forced = Logicsim.Refsim.eval_with_overrides c ~overrides:[ (g16, true) ] inputs in
  Alcotest.(check bool) "override applied" true forced.(g16);
  let expected = Logicsim.Refsim.eval c inputs in
  (* With all-0 inputs G16 = NAND(0, G11) = 1 already: no change. *)
  Alcotest.(check bool) "consistent with natural value" expected.(g16) forced.(g16)

let test_refsim_rejects_bad_width () =
  let c = Circuit.Generators.c17 () in
  Alcotest.(check bool) "wrong width" true
    (try
       ignore (Logicsim.Refsim.eval c (Array.make 4 false));
       false
     with Invalid_argument _ -> true)

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:25 ~name:"packed = ref on random circuits"
      (pair (int_range 3 12) (int_range 20 250))
      (fun (inputs, gates) ->
        let c =
          Circuit.Generators.random_circuit ~inputs ~gates ~outputs:3
            ~seed:(inputs * 1000 + gates)
        in
        let rng = Stats.Rng.create ~seed:(gates + 5) () in
        let patterns = Array.init 64 (fun _ -> random_inputs rng inputs) in
        let block = Logicsim.Packed.block_of_patterns c patterns in
        let packed = Logicsim.Packed.eval_block c block in
        let ok = ref true in
        Array.iteri
          (fun i pattern ->
            Array.iteri
              (fun id v -> if Logicsim.Packed.bit packed.(id) i <> v then ok := false)
              (Logicsim.Refsim.eval c pattern))
          patterns;
        !ok) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "logicsim",
      [ tc "packed matches reference" test_packed_matches_ref;
        tc "live mask" test_packed_live_mask;
        tc "block splitting" test_packed_block_splitting;
        tc "bad widths rejected" test_packed_rejects_bad_widths;
        tc "reference overrides" test_refsim_overrides;
        tc "reference rejects bad width" test_refsim_rejects_bad_width ] );
    ( "logicsim.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
