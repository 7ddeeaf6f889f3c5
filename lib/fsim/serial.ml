let forced_word polarity =
  match polarity with Faults.Fault.Stuck_at_0 -> 0L | Faults.Fault.Stuck_at_1 -> -1L

(* The oracle's own gate evaluator, independent of the packed kernel:
   recompute node [id] from the fanin words in [values], with input pin
   [pin] (-1 for none) forced to [word]. *)
let eval_node (c : Circuit.Netlist.t) id ~pin ~word values =
  let srcs = c.fanins.(id) in
  let value_of i = if i = pin then word else values.(srcs.(i)) in
  let fold op =
    let acc = ref (value_of 0) in
    for i = 1 to Array.length srcs - 1 do
      acc := op !acc (value_of i)
    done;
    !acc
  in
  match c.kinds.(id) with
  | Circuit.Gate.Input -> values.(id)
  | Circuit.Gate.Const0 -> 0L
  | Circuit.Gate.Const1 -> -1L
  | Circuit.Gate.Buf -> value_of 0
  | Circuit.Gate.Not -> Int64.lognot (value_of 0)
  | Circuit.Gate.And -> fold Int64.logand
  | Circuit.Gate.Nand -> Int64.lognot (fold Int64.logand)
  | Circuit.Gate.Or -> fold Int64.logor
  | Circuit.Gate.Nor -> Int64.lognot (fold Int64.logor)
  | Circuit.Gate.Xor -> fold Int64.logxor
  | Circuit.Gate.Xnor -> Int64.lognot (fold Int64.logxor)

let eval_with_fault (c : Circuit.Netlist.t) fault block =
  let values = Array.make (Circuit.Netlist.num_nodes c) 0L in
  Array.iteri
    (fun i id -> values.(id) <- block.Logicsim.Packed.input_words.(i))
    c.inputs;
  (match fault.Faults.Fault.site with
  | Faults.Fault.Stem v ->
    Array.iter
      (fun id ->
        if id = v then values.(id) <- forced_word fault.Faults.Fault.polarity
        else
          match c.kinds.(id) with
          | Circuit.Gate.Input -> ()
          | _ -> values.(id) <- eval_node c id ~pin:(-1) ~word:0L values)
      c.topo_order
  | Faults.Fault.Branch { gate; pin } ->
    let word = forced_word fault.Faults.Fault.polarity in
    Array.iter
      (fun id ->
        if id = gate then
          values.(id) <- eval_node c id ~pin ~word values
        else
          match c.kinds.(id) with
          | Circuit.Gate.Input -> ()
          | _ -> values.(id) <- eval_node c id ~pin:(-1) ~word:0L values)
      c.topo_order);
  values

let detect_word c ~good_outputs fault block =
  let faulty = eval_with_fault c fault block in
  let mask = Logicsim.Packed.live_mask block in
  let diff = ref 0L in
  Array.iteri
    (fun i id ->
      diff := Int64.logor !diff (Int64.logxor good_outputs.(i) faulty.(id)))
    c.Circuit.Netlist.outputs;
  Int64.logand !diff mask

let lowest_set_bit w =
  if w = 0L then invalid_arg "lowest_set_bit: zero word";
  let rec loop i = if Logicsim.Packed.bit w i then i else loop (i + 1) in
  loop 0

let run ?(cancel = Robust.Cancel.none) c faults patterns =
  Array.iter (Faults.Fault.check c) faults;
  Instrument.engine_run ~engine:"serial" ~faults:(Array.length faults)
    ~patterns:(Array.length patterns)
  @@ fun () ->
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  let progress =
    Instrument.progress_start ~engine:"serial" ~patterns:(Array.length patterns)
  in
  let results = Array.make (Array.length faults) None in
  let alive = ref (List.init (Array.length faults) (fun i -> i)) in
  let block_start = ref 0 in
  List.iter
    (fun block ->
      if !alive <> [] && not (Robust.Cancel.stop_requested cancel) then begin
        if Instrument.observing () then
          Instrument.count_fault_evals ~engine:"serial" (List.length !alive);
        let good = Logicsim.Packed.eval_block c block in
        let good_outputs = Logicsim.Packed.output_words c good in
        let survivors = ref [] in
        List.iter
          (fun fi ->
            let mask = detect_word c ~good_outputs faults.(fi) block in
            if mask = 0L then survivors := fi :: !survivors
            else results.(fi) <- Some (!block_start + lowest_set_bit mask))
          !alive;
        alive := List.rev !survivors
      end;
      block_start := !block_start + block.Logicsim.Packed.pattern_count;
      Obs.Progress.step progress block.Logicsim.Packed.pattern_count)
    blocks;
  Obs.Progress.finish progress;
  results

let run_counts ?(cancel = Robust.Cancel.none) ~n c faults patterns =
  if n < 1 then invalid_arg "Serial.run_counts: n must be >= 1";
  Array.iter (Faults.Fault.check c) faults;
  Instrument.engine_run ~engine:"ndetect.serial" ~faults:(Array.length faults)
    ~patterns:(Array.length patterns)
  @@ fun () ->
  Obs.Trace.add_int "n" n;
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  let progress =
    Instrument.progress_start ~engine:"ndetect.serial"
      ~patterns:(Array.length patterns)
  in
  let nf = Array.length faults in
  let detections = Array.make nf 0 in
  let nth = Array.make nf None in
  let alive = ref (List.init nf Fun.id) in
  let block_start = ref 0 in
  List.iter
    (fun block ->
      if !alive <> [] && not (Robust.Cancel.stop_requested cancel) then begin
        if Instrument.observing () then
          Instrument.count_fault_evals ~engine:"ndetect.serial"
            (List.length !alive);
        let good = Logicsim.Packed.eval_block c block in
        let good_outputs = Logicsim.Packed.output_words c good in
        let survivors = ref [] in
        List.iter
          (fun fi ->
            let mask = detect_word c ~good_outputs faults.(fi) block in
            if Ppsfp.record_detections ~n ~block_start:!block_start ~detections
                 ~nth mask fi
            then survivors := fi :: !survivors)
          !alive;
        alive := List.rev !survivors
      end;
      block_start := !block_start + block.Logicsim.Packed.pattern_count;
      Obs.Progress.step progress block.Logicsim.Packed.pattern_count)
    blocks;
  Obs.Progress.finish progress;
  (detections, nth)

(* Multiple-fault injection: per-line AND/OR masks.  A stuck-at-0 clears
   the line's word (and_mask = 0), a stuck-at-1 sets it (or_mask = -1);
   applying AND first then OR makes sa1 win on a (physically impossible)
   polarity clash. *)
type fault_set_masks = {
  stem_and : (int, int64) Hashtbl.t;
  stem_or : (int, int64) Hashtbl.t;
  branch_and : (int * int, int64) Hashtbl.t;
  branch_or : (int * int, int64) Hashtbl.t;
}

let masks_of_fault_set faults =
  let m =
    { stem_and = Hashtbl.create 8; stem_or = Hashtbl.create 8;
      branch_and = Hashtbl.create 8; branch_or = Hashtbl.create 8 }
  in
  Array.iter
    (fun fault ->
      match (fault.Faults.Fault.site, fault.Faults.Fault.polarity) with
      | Faults.Fault.Stem v, Faults.Fault.Stuck_at_0 -> Hashtbl.replace m.stem_and v 0L
      | Faults.Fault.Stem v, Faults.Fault.Stuck_at_1 -> Hashtbl.replace m.stem_or v (-1L)
      | Faults.Fault.Branch { gate; pin }, Faults.Fault.Stuck_at_0 ->
        Hashtbl.replace m.branch_and (gate, pin) 0L
      | Faults.Fault.Branch { gate; pin }, Faults.Fault.Stuck_at_1 ->
        Hashtbl.replace m.branch_or (gate, pin) (-1L))
    faults;
  m

let apply_masks ~and_mask ~or_mask w =
  let w = match and_mask with Some a -> Int64.logand w a | None -> w in
  match or_mask with Some o -> Int64.logor w o | None -> w

let eval_gate_with_branch_masks (c : Circuit.Netlist.t) m id values =
  let srcs = c.fanins.(id) in
  let value_of i =
    apply_masks
      ~and_mask:(Hashtbl.find_opt m.branch_and (id, i))
      ~or_mask:(Hashtbl.find_opt m.branch_or (id, i))
      values.(srcs.(i))
  in
  let fold op =
    let acc = ref (value_of 0) in
    for i = 1 to Array.length srcs - 1 do
      acc := op !acc (value_of i)
    done;
    !acc
  in
  match c.kinds.(id) with
  | Circuit.Gate.Input -> values.(id)
  | Circuit.Gate.Const0 -> 0L
  | Circuit.Gate.Const1 -> -1L
  | Circuit.Gate.Buf -> value_of 0
  | Circuit.Gate.Not -> Int64.lognot (value_of 0)
  | Circuit.Gate.And -> fold Int64.logand
  | Circuit.Gate.Nand -> Int64.lognot (fold Int64.logand)
  | Circuit.Gate.Or -> fold Int64.logor
  | Circuit.Gate.Nor -> Int64.lognot (fold Int64.logor)
  | Circuit.Gate.Xor -> fold Int64.logxor
  | Circuit.Gate.Xnor -> Int64.lognot (fold Int64.logxor)

let eval_with_fault_set (c : Circuit.Netlist.t) faults block =
  let m = masks_of_fault_set faults in
  let values = Array.make (Circuit.Netlist.num_nodes c) 0L in
  Array.iteri
    (fun i id -> values.(id) <- block.Logicsim.Packed.input_words.(i))
    c.inputs;
  Array.iter
    (fun id ->
      let w =
        match c.kinds.(id) with
        | Circuit.Gate.Input -> values.(id)
        | _ -> eval_gate_with_branch_masks c m id values
      in
      values.(id) <-
        apply_masks ~and_mask:(Hashtbl.find_opt m.stem_and id)
          ~or_mask:(Hashtbl.find_opt m.stem_or id) w)
    c.topo_order;
  values

let first_fail_with_fault_set c faults patterns =
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  let rec scan block_start = function
    | [] -> None
    | block :: rest ->
      let good = Logicsim.Packed.eval_block c block in
      let good_outputs = Logicsim.Packed.output_words c good in
      let faulty = eval_with_fault_set c faults block in
      let mask = Logicsim.Packed.live_mask block in
      let diff = ref 0L in
      Array.iteri
        (fun i id ->
          diff := Int64.logor !diff (Int64.logxor good_outputs.(i) faulty.(id)))
        c.Circuit.Netlist.outputs;
      let diff = Int64.logand !diff mask in
      if diff = 0L then
        scan (block_start + block.Logicsim.Packed.pattern_count) rest
      else Some (block_start + lowest_set_bit diff)
  in
  scan 0 blocks
