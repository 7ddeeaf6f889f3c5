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
            Alcotest.(check bool) "node value" v
              (Logicsim.Packed.bit (Logicsim.Packed.word values id) i))
          expected
      done;
      base := !base + block.Logicsim.Packed.pattern_count)
    blocks

let test_packed_matches_ref () =
  check_packed_matches_ref (Circuit.Generators.lsi_chip ~scale:4 ()) ~seed:101 ~count:100;
  check_packed_matches_ref
    (Circuit.Generators.random_circuit ~inputs:14 ~gates:400 ~outputs:10 ~seed:4)
    ~seed:102 ~count:200

(* One good-machine block allocates its word buffer and no box per
   node.  On lsi_chip 1981 at scale 12 the buffer is one major-heap
   block of [num_nodes + 1] words and a header; the [Gc.minor] after the
   call promotes whatever minor words are still live, so the major
   count covers those too.  A boxed copy of every node's word read
   5,896 minor and 9,823 major words here. *)
let test_eval_block_allocation () =
  let c = Circuit.Generators.lsi_chip ~seed:1981 ~scale:12 () in
  let rng = Stats.Rng.create ~seed:12 () in
  let block =
    Logicsim.Packed.block_of_patterns c
      (Array.init 64 (fun _ -> random_inputs rng (N.num_inputs c)))
  in
  Gc.minor ();
  let minor, _, major = Gc.counters () in
  ignore (Sys.opaque_identity (Logicsim.Packed.eval_block c block));
  Gc.minor ();
  let minor', _, major' = Gc.counters () in
  let minor = minor' -. minor and major = major' -. major in
  if minor > 64.0 then
    Alcotest.failf "eval_block allocates %.0f minor words (> 64)" minor;
  let limit = float_of_int (N.num_nodes c + 16) in
  if major > limit then
    Alcotest.failf "eval_block allocates %.0f major words (> %.0f)" major limit

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
              (fun id v ->
                if Logicsim.Packed.bit (Logicsim.Packed.word packed id) i <> v then
                  ok := false)
              (Logicsim.Refsim.eval c pattern))
          patterns;
        !ok);
    (* The packer's contract on its own, for any width and any count:
       blocks of 64 then one of the rest, bit [p] of input [i]'s word
       is pattern [start + p]'s value at [i], bits from [pattern_count]
       up are zero, and one wrong-width pattern anywhere raises the
       width error. *)
    Test.make ~count:60 ~name:"packing: block sizes, bits and width errors"
      (triple (int_range 1 130) (int_range 0 300) small_nat)
      (fun (inputs, count, seed) ->
        let module P = Logicsim.Packed in
        let c =
          Circuit.Generators.random_circuit ~inputs ~gates:(max 4 (inputs / 2))
            ~outputs:2 ~seed
        in
        let rng = Stats.Rng.create ~seed:(seed + 17) () in
        let patterns = Array.init count (fun _ -> random_inputs rng inputs) in
        let blocks = Array.of_list (P.blocks_of_patterns c patterns) in
        let nblocks = (count + 63) / 64 in
        let block_ok k (b : P.block) =
          let start = 64 * k in
          let live = min 64 (count - start) in
          b.pattern_count = live
          && Array.length b.input_words = inputs
          && b.input_words = (P.block_of_patterns c (Array.sub patterns start live)).input_words
          && Array.for_all (fun w -> Int64.logand w (Int64.lognot (P.live_mask b)) = 0L)
               b.input_words
          && List.for_all
               (fun p ->
                 List.for_all
                   (fun i -> P.bit b.input_words.(i) p = patterns.(start + p).(i))
                   (List.init inputs Fun.id))
               (List.init live Fun.id)
        in
        let width_error_in k =
          let bad = Array.copy patterns in
          let start = 64 * k in
          let p = start + Stats.Rng.int rng (min 64 (count - start)) in
          bad.(p) <- Array.make (if Stats.Rng.bool rng then inputs + 1 else inputs - 1) false;
          match P.blocks_of_patterns c bad with
          | _ -> false
          | exception Invalid_argument msg ->
            msg = "Packed.block_of_patterns: pattern width mismatch"
        in
        Array.length blocks = nblocks
        && Array.for_all Fun.id (Array.mapi block_ok blocks)
        && (count = 0
            || List.for_all width_error_in [ 0; nblocks / 2; nblocks - 1 ])) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "logicsim",
      [ tc "packed matches reference" test_packed_matches_ref;
        tc "eval_block allocates only its buffer" test_eval_block_allocation;
        tc "live mask" test_packed_live_mask;
        tc "block splitting" test_packed_block_splitting;
        tc "bad widths rejected" test_packed_rejects_bad_widths;
        tc "reference overrides" test_refsim_overrides;
        tc "reference rejects bad width" test_refsim_rejects_bad_width ] );
    ( "logicsim.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
