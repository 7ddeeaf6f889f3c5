type t = {
  circuit : Circuit.Netlist.t;
  pattern_count : int;
  ones : int array;            (* per node: patterns with value 1 *)
  b_stem : float array;        (* per node: stem observability *)
  b_pin : float array array;   (* per gate, per pin *)
}

let popcount word =
  let rec loop w acc = if w = 0L then acc else loop (Int64.logand w (Int64.sub w 1L)) (acc + 1) in
  loop word 0

(* Mask of patterns on which [pin] of gate [id] is sensitized to the
   output: toggling the pin's value would toggle the gate output. *)
let sensitization_mask (c : Circuit.Netlist.t) values id pin =
  let srcs = c.Circuit.Netlist.fanins.(id) in
  let fold_others op identity =
    let acc = ref identity in
    Array.iteri
      (fun j src -> if j <> pin then acc := op !acc (Logicsim.Packed.word values src))
      srcs;
    !acc
  in
  match c.Circuit.Netlist.kinds.(id) with
  | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> 0L
  | Circuit.Gate.Buf | Circuit.Gate.Not -> -1L
  | Circuit.Gate.Xor | Circuit.Gate.Xnor -> -1L
  | Circuit.Gate.And | Circuit.Gate.Nand -> fold_others Int64.logand (-1L)
  | Circuit.Gate.Or | Circuit.Gate.Nor ->
    Int64.lognot (fold_others Int64.logor 0L)

let analyze (c : Circuit.Netlist.t) patterns =
  let pattern_count = Array.length patterns in
  if pattern_count = 0 then invalid_arg "Stafan.analyze: no patterns";
  let n = Circuit.Netlist.num_nodes c in
  let ones = Array.make n 0 in
  let sensitized = Array.map (fun fanins -> Array.make (Array.length fanins) 0) c.fanins in
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  List.iter
    (fun block ->
      let values = Logicsim.Packed.eval_block c block in
      let live = Logicsim.Packed.live_mask block in
      for id = 0 to n - 1 do
        ones.(id) <-
          ones.(id) + popcount (Int64.logand (Logicsim.Packed.word values id) live);
        Array.iteri
          (fun pin _src ->
            let mask = Int64.logand (sensitization_mask c values id pin) live in
            sensitized.(id).(pin) <- sensitized.(id).(pin) + popcount mask)
          c.fanins.(id)
      done)
    blocks;
  (* Backward observability sweep. *)
  let b_stem = Array.make n 0.0 in
  let b_pin = Array.map (fun fanins -> Array.make (Array.length fanins) 0.0) c.fanins in
  let total = float_of_int pattern_count in
  for i = Array.length c.topo_order - 1 downto 0 do
    let id = c.topo_order.(i) in
    (* Stem observability: direct PO observation or the best branch. *)
    let from_branches =
      Array.fold_left
        (fun acc dst ->
          let best_pin = ref acc in
          Array.iteri
            (fun pin src -> if src = id then best_pin := max !best_pin b_pin.(dst).(pin))
            c.fanins.(dst);
          !best_pin)
        0.0 c.fanouts.(id)
    in
    b_stem.(id) <- (if Circuit.Netlist.is_output c id then 1.0 else from_branches);
    (* Pin observabilities of this gate's inputs hang off the stem value
       of the gate itself, which is already final (reverse topo). *)
    Array.iteri
      (fun pin _src ->
        b_pin.(id).(pin) <-
          b_stem.(id) *. (float_of_int sensitized.(id).(pin) /. total))
      c.fanins.(id)
  done;
  { circuit = c; pattern_count; ones; b_stem; b_pin }

let controllability_one t id =
  float_of_int t.ones.(id) /. float_of_int t.pattern_count

let observability t id = t.b_stem.(id)

let detection_probability t fault =
  let c = t.circuit in
  let line_node, line_b =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v -> (v, t.b_stem.(v))
    | Faults.Fault.Branch { gate; pin } ->
      (c.Circuit.Netlist.fanins.(gate).(pin), t.b_pin.(gate).(pin))
  in
  let c1 = controllability_one t line_node in
  let activation =
    match fault.Faults.Fault.polarity with
    | Faults.Fault.Stuck_at_0 -> c1
    | Faults.Fault.Stuck_at_1 -> 1.0 -. c1
  in
  (* Independence approximation: P(activated and observed).  Clamped
     at the source: both factors are empirical fractions, but float
     round-off (and any future weighting of the factors) must never
     leak a probability outside [0,1] to consumers that use it raw. *)
  Float.min 1.0 (Float.max 0.0 (activation *. line_b))

let expected_coverage t universe ~pattern_count =
  if pattern_count < 0 then invalid_arg "Stafan.expected_coverage: negative count";
  let n = float_of_int pattern_count in
  let acc = ref 0.0 in
  Array.iter
    (fun fault ->
      let d = min 1.0 (max 0.0 (detection_probability t fault)) in
      acc := !acc +. (1.0 -. ((1.0 -. d) ** n)))
    universe;
  !acc /. float_of_int (max 1 (Array.length universe))

let predicted_curve t universe ~counts =
  Array.map (fun n -> (n, expected_coverage t universe ~pattern_count:n)) counts
