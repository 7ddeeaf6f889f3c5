(* Ground truth shared by the test suites: pattern sets, the exact
   per-node signal and per-fault detection probabilities of exhaustive
   simulation, the faults no input vector detects, the small circuits
   those oracles enumerate, and one float comparison. *)

(* Every input vector of a [width]-input circuit, input [i] of vector
   [v] being bit [i] of [v]. *)
let exhaustive_patterns width =
  Array.init (1 lsl width) (fun v ->
      Array.init width (fun i -> (v lsr i) land 1 = 1))

let random_patterns ~seed ~count c =
  let rng = Stats.Rng.create ~seed () in
  Tpg.Random_tpg.uniform rng c ~count

let popcount word =
  let rec loop w acc =
    if w = 0L then acc else loop (Int64.logand w (Int64.sub w 1L)) (acc + 1)
  in
  loop word 0

(* True signal probability of every node: fraction of all 2^k patterns
   with the node at 1. *)
let exact_probabilities c patterns =
  let n = Circuit.Netlist.num_nodes c in
  let ones = Array.make n 0 in
  List.iter
    (fun block ->
      let values = Logicsim.Packed.eval_block c block in
      let live = Logicsim.Packed.live_mask block in
      for id = 0 to n - 1 do
        ones.(id) <-
          ones.(id) + popcount (Int64.logand (Logicsim.Packed.word values id) live)
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

(* The faults of [universe] that no input vector detects, by serial
   simulation of every vector. *)
let undetectable_exhaustive c universe =
  let patterns = exhaustive_patterns (Circuit.Netlist.num_inputs c) in
  let profile =
    Fsim.Coverage.profile ~engine:Fsim.Coverage.Serial c universe patterns
  in
  let set = Hashtbl.create 16 in
  Array.iteri
    (fun i d -> if d = None then Hashtbl.replace set universe.(i) ())
    profile.Fsim.Coverage.first_detection;
  set

(* Circuits small enough to enumerate, with reconvergence, redundancy
   and random control logic among them. *)
let workloads () =
  let module G = Circuit.Generators in
  [ ("c17", G.c17 ());
    ("rca:4", G.ripple_carry_adder ~bits:4);
    ("cmp:4", G.comparator ~bits:4);
    ("dec:3", G.decoder ~bits:3);
    ("mux:2", G.mux_tree ~select_bits:2);
    ("parity:8", G.parity_tree ~bits:8);
    ("redundant", G.redundant_demo ());
    ("rand:8,30", G.random_circuit ~inputs:8 ~gates:30 ~outputs:4 ~seed:11);
    ("rand:10,60", G.random_circuit ~inputs:10 ~gates:60 ~outputs:5 ~seed:5) ]

let close ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) "close" expected actual

(* Drop-after-n grading on any engine through the one grading state
   ([Fsim.Coverage.extend]): per-fault counts and n-th detections, as
   [Fsim.Serial.run_counts] returns them. *)
let run_counts ?(engine = Fsim.Coverage.Parallel) ~n c faults patterns =
  let st = Fsim.Coverage.state ~n (Array.length faults) in
  ignore (Fsim.Coverage.extend ~engine c faults st ~offset:0 patterns);
  (st.Fsim.Coverage.detections, st.Fsim.Coverage.nth)
