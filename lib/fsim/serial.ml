(* Fault injection: per-line AND/OR masks, numbered as
   [Netlist.line_offsets] numbers the lines (a node's stem, then its
   input pins from the last down to pin 0), which is a fault's dense id
   halved.  A stuck-at-0 clears the line's word (AND mask 0), a
   stuck-at-1 sets it (OR mask -1); applying AND first then OR makes
   stuck-at-1 win on a (physically impossible) polarity clash.
   [masked_node] flags the nodes with a faulty line, so every other node
   is read without its masks.  The serial run keeps one mask set and
   injects each fault before a block is evaluated and removes it
   after. *)
type masks = {
  and_mask : int64 array;
  or_mask : int64 array;
  masked_node : bool array;
}

(* Inject ([on = true]) or remove the faults of [faults]. *)
let inject c m ~on faults =
  Array.iter
    (fun fault ->
      let line = Faults.Fault.id c fault lsr 1 in
      m.masked_node.(Faults.Fault.site_node fault) <- on;
      match fault.Faults.Fault.polarity with
      | Faults.Fault.Stuck_at_0 -> m.and_mask.(line) <- (if on then 0L else -1L)
      | Faults.Fault.Stuck_at_1 -> m.or_mask.(line) <- (if on then -1L else 0L))
    faults

(* Masks with the faults of [faults] injected. *)
let masks (c : Circuit.Netlist.t) faults =
  let nodes = Circuit.Netlist.num_nodes c in
  let lines = c.line_offsets.(nodes) in
  let m =
    { and_mask = Array.make lines (-1L); or_mask = Array.make lines 0L;
      masked_node = Array.make nodes false }
  in
  inject c m ~on:true faults;
  m

let[@inline] masked m line w =
  Int64.logor (Int64.logand w m.and_mask.(line)) m.or_mask.(line)

(* The oracle's own gate evaluator, independent of the packed kernel:
   recompute node [id] from the fanin words in [values], each read
   through its pin's masks when the node is flagged. *)
let eval_node (c : Circuit.Netlist.t) m values id =
  let srcs = c.fanins.(id) in
  let last_pin = c.line_offsets.(id + 1) - 1 in
  let value_of =
    if m.masked_node.(id) then fun i -> masked m (last_pin - i) values.(srcs.(i))
    else fun i -> values.(srcs.(i))
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

(* The whole faulty machine over one block. *)
let eval_masked (c : Circuit.Netlist.t) m block =
  let values = Array.make (Circuit.Netlist.num_nodes c) 0L in
  Array.iteri
    (fun i id -> values.(id) <- block.Logicsim.Packed.input_words.(i))
    c.inputs;
  Array.iter
    (fun id ->
      let w = eval_node c m values id in
      values.(id) <-
        (if m.masked_node.(id) then masked m c.line_offsets.(id) w else w))
    c.topo_order;
  values

(* Patterns (within the block's live mask) on which some primary output
   of the masked machine differs from [good_outputs]. *)
let detect_masked c m ~good_outputs block =
  let faulty = eval_masked c m block in
  let diff = ref 0L in
  Array.iteri
    (fun i id ->
      diff := Int64.logor !diff (Int64.logxor good_outputs.(i) faulty.(id)))
    c.Circuit.Netlist.outputs;
  Int64.logand !diff (Logicsim.Packed.live_mask block)

let eval_with_fault_set c faults block = eval_masked c (masks c faults) block

let eval_with_fault c fault block = eval_with_fault_set c [| fault |] block

let detect_word c ~good_outputs fault block =
  detect_masked c (masks c [| fault |]) ~good_outputs block

let good_outputs c block =
  Logicsim.Packed.output_words c (Logicsim.Packed.eval_block c block)

(* The one block loop: every alive fault is injected alone into the
   shared masks, block by block, and dropped after its n-th
   detection. *)
let extend ?(cancel = Robust.Cancel.none) c faults (st : Ppsfp.state) ~alive
    ~offset patterns =
  Array.iter (fun fi -> Faults.Fault.check c faults.(fi)) alive;
  let np = Array.length patterns in
  Instrument.engine_run ~engine:"serial" ~n:st.n ~faults:(Array.length alive)
    ~patterns:np
  @@ fun engine ->
  let blocks = Logicsim.Packed.blocks_of_patterns c patterns in
  let progress = Instrument.progress_start ~engine ~patterns:np in
  let m = masks c [||] in
  let alive = ref (Array.to_list alive) in
  let dropped = ref 0 in
  let block_start = ref offset in
  List.iter
    (fun block ->
      if !alive <> [] && not (Robust.Cancel.stop_requested cancel) then begin
        if Instrument.observing () then
          Instrument.count_fault_evals ~engine (List.length !alive);
        let good_outputs = good_outputs c block in
        alive :=
          List.filter
            (fun fi ->
              let fault = [| faults.(fi) |] in
              inject c m ~on:true fault;
              let mask = detect_masked c m ~good_outputs block in
              inject c m ~on:false fault;
              let keep =
                Ppsfp.record_detections st ~block_start:!block_start mask fi
              in
              if not keep then incr dropped;
              keep)
            !alive
      end;
      block_start := !block_start + block.Logicsim.Packed.pattern_count;
      Obs.Progress.step progress block.Logicsim.Packed.pattern_count)
    blocks;
  Obs.Progress.finish progress;
  !dropped

let run ?cancel c faults patterns =
  (Ppsfp.grade_all (extend ?cancel) ~n:1 c faults patterns).first

let run_counts ?cancel ~n c faults patterns =
  let st = Ppsfp.grade_all (extend ?cancel) ~n c faults patterns in
  (st.detections, st.nth)

let first_fail_with_fault_set c faults patterns =
  let m = masks c faults in
  let rec scan block_start = function
    | [] -> None
    | block :: rest ->
      let mask = detect_masked c m ~good_outputs:(good_outputs c block) block in
      if mask = 0L then
        scan (block_start + block.Logicsim.Packed.pattern_count) rest
      else Some (block_start + Ppsfp.lowest_set_bit mask)
  in
  scan 0 (Logicsim.Packed.blocks_of_patterns c patterns)
