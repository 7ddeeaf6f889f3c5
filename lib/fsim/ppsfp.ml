(* Constant-time lowest-set-bit: isolate the bit with [w land (-w)],
   then perfect-hash the 64 single-bit words through a de Bruijn
   multiply.  The table is built from the same multiply, so it is
   correct for any valid de Bruijn constant. *)
let debruijn = 0x03F79D71B4CB0A89L

let debruijn_index =
  let table = Array.make 64 0 in
  for i = 0 to 63 do
    let hash =
      Int64.to_int
        (Int64.shift_right_logical (Int64.mul (Int64.shift_left 1L i) debruijn) 58)
    in
    table.(hash) <- i
  done;
  table

let[@inline] lowest_set_bit w =
  if w = 0L then invalid_arg "lowest_set_bit: zero word";
  let isolated = Int64.logand w (Int64.neg w) in
  debruijn_index.(Int64.to_int
                    (Int64.shift_right_logical (Int64.mul isolated debruijn) 58))

(* Branch-free SWAR popcount: pairwise sums, then nibble sums, then one
   multiply to fold the byte counts into the top byte. *)
let[@inline] popcount w =
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    add
      (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

(* Index of the k-th (1-based) set bit: clear the k-1 lowest set bits
   with [w land (w - 1)], then take the lowest survivor. *)
let[@inline] nth_set_bit w k =
  if k < 1 then invalid_arg "nth_set_bit: k must be >= 1";
  let w = ref w in
  for _ = 2 to k do
    if !w = 0L then invalid_arg "nth_set_bit: fewer than k set bits";
    w := Int64.logand !w (Int64.sub !w 1L)
  done;
  if !w = 0L then invalid_arg "nth_set_bit: fewer than k set bits";
  lowest_set_bit !w

(* Drop-after-n bookkeeping shared by all n-detection engines: fold the
   detection mask of fault [fi] on one block into its running count and
   report whether the fault stays alive.  The count saturates at [n]
   and the index of the n-th detecting pattern is recorded exactly
   once; with [n = 1] the recorded index is [lowest_set_bit mask], i.e.
   bit-identical to the first-detection engines. *)
let[@inline] record_detections ~n ~block_start ~detections ~nth mask fi =
  if mask = 0L then true
  else begin
    let seen = detections.(fi) in
    let hits = popcount mask in
    if seen + hits >= n then begin
      detections.(fi) <- n;
      nth.(fi) <- Some (block_start + nth_set_bit mask (n - seen));
      false
    end
    else begin
      detections.(fi) <- seen + hits;
      true
    end
  end

(* Per-domain scratch of the kernel.  A faulty word [faulty] at node
   [u] is valid only while [stamp.(u) = generation]; every fault-block
   starts a new generation, so nothing is ever cleared.  The event
   queue is one flat array partitioned by level: level [l]'s pending
   nodes are [queue.(first.(l)) .. queue.(first.(l) + fill.(l) - 1)],
   and a node is queued at most once per generation
   ([queued.(u) = generation]), so each level's segment is as long as
   the number of nodes on that level. *)
type kernel = {
  circuit : Circuit.Netlist.t;
  is_output : bool array;
  faulty : Bytes.t;
  stamp : int array;
  queued : int array;
  queue : int array;
  first : int array;
  fill : int array;
  mutable top : int;  (* highest level queued in this generation *)
  mutable generation : int;
}

let kernel (c : Circuit.Netlist.t) =
  let nodes = Circuit.Netlist.num_nodes c in
  let is_output = Array.make nodes false in
  Array.iter (fun id -> is_output.(id) <- true) c.outputs;
  let depth = Circuit.Netlist.depth c in
  let first = Array.make (depth + 2) 0 in
  Array.iter (fun l -> first.(l + 1) <- first.(l + 1) + 1) c.levels;
  for l = 1 to depth + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  { circuit = c; is_output; faulty = Logicsim.Packed.words c;
    stamp = Array.make nodes (-1); queued = Array.make nodes (-1);
    queue = Array.make nodes 0; first; fill = Array.make (depth + 1) 0;
    top = 0; generation = 0 }

let[@inline] schedule_fanouts k u =
  let outs = k.circuit.fanouts.(u) in
  for i = 0 to Array.length outs - 1 do
    let v = outs.(i) in
    if k.queued.(v) <> k.generation then begin
      k.queued.(v) <- k.generation;
      let l = k.circuit.levels.(v) in
      k.queue.(k.first.(l) + k.fill.(l)) <- v;
      k.fill.(l) <- k.fill.(l) + 1;
      if l > k.top then k.top <- l
    end
  done

(* Propagate one fault through its cone over one block whose good
   words are [good]; returns the mask of patterns (within [live]) on
   which some primary output diverges.  A node's faulty word is written
   into its slot, then stamped (and its fanouts queued) only when it
   differs from the good word on a live pattern. *)
let[@inline] propagate k good ~live fault =
  k.generation <- k.generation + 1;
  let generation = k.generation in
  let c = k.circuit and faulty = k.faulty and stamp = k.stamp in
  let forced =
    match fault.Faults.Fault.polarity with
    | Faults.Fault.Stuck_at_0 -> 0L
    | Faults.Fault.Stuck_at_1 -> -1L
  in
  let node =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v ->
      Bytes.set_int64_ne faulty (v lsl 3) forced;
      v
    | Faults.Fault.Branch { gate; pin } ->
      Logicsim.Packed.eval_gate c ~good ~faulty ~stamp ~generation ~pin ~forced gate;
      gate
  in
  let diff =
    Int64.logand
      (Int64.logxor (Bytes.get_int64_ne faulty (node lsl 3))
         (Bytes.get_int64_ne good (node lsl 3)))
      live
  in
  if diff = 0L then 0L
  else begin
    stamp.(node) <- generation;
    let out = ref (if k.is_output.(node) then diff else 0L) in
    k.top <- 0;
    schedule_fanouts k node;
    let level = ref (c.levels.(node) + 1) in
    while !level <= k.top do
      let l = !level in
      let base = k.first.(l) in
      for j = base to base + k.fill.(l) - 1 do
        let u = k.queue.(j) in
        Logicsim.Packed.eval_gate c ~good ~faulty ~stamp ~generation ~pin:(-1)
          ~forced:0L u;
        let d =
          Int64.logand
            (Int64.logxor (Bytes.get_int64_ne faulty (u lsl 3))
               (Bytes.get_int64_ne good (u lsl 3)))
            live
        in
        if d <> 0L then begin
          stamp.(u) <- generation;
          if k.is_output.(u) then out := Int64.logor !out d;
          schedule_fanouts k u
        end
      done;
      k.fill.(l) <- 0;
      incr level
    done;
    !out
  end

let grade ?(cancel = Robust.Cancel.none) ?(on_block = ignore) ~engine ~n
    ~progress c faults ~blocks ~good ~alive ~detections ~nth =
  let k = kernel c in
  let alive_count = ref (Array.length alive) in
  let dropped = ref 0 in
  let block_start = ref 0 in
  for b = 0 to Array.length blocks - 1 do
    let block = blocks.(b) in
    if !alive_count > 0 && not (Robust.Cancel.stop_requested cancel) then begin
      if Instrument.observing () then
        Instrument.count_fault_evals ~engine !alive_count;
      let good = good b in
      let live = Logicsim.Packed.live_mask block in
      let kept = ref 0 in
      for j = 0 to !alive_count - 1 do
        let fi = alive.(j) in
        let mask = propagate k good ~live faults.(fi) in
        if record_detections ~n ~block_start:!block_start ~detections ~nth mask fi
        then begin
          alive.(!kept) <- fi;
          incr kept
        end
        else incr dropped
      done;
      alive_count := !kept
    end;
    block_start := !block_start + block.Logicsim.Packed.pattern_count;
    Obs.Progress.step progress block.Logicsim.Packed.pattern_count;
    on_block ()
  done;
  !dropped

(* The single-domain engines: every fault is alive at the start, and
   the good machine is evaluated block by block into one buffer, only
   while some fault is still alive. *)
let run_general ?cancel ?(annotate = ignore) ~engine ~n c faults patterns =
  Array.iter (Faults.Fault.check c) faults;
  let nf = Array.length faults in
  Instrument.engine_run ~engine ~faults:nf ~patterns:(Array.length patterns)
  @@ fun () ->
  annotate ();
  let blocks = Array.of_list (Logicsim.Packed.blocks_of_patterns c patterns) in
  let progress =
    Instrument.progress_start ~engine ~patterns:(Array.length patterns)
  in
  let words = Logicsim.Packed.words c in
  let good b =
    Logicsim.Packed.eval_words c blocks.(b) words;
    words
  in
  let detections = Array.make nf 0 in
  let nth = Array.make nf None in
  ignore
    (grade ?cancel ~engine ~n ~progress c faults ~blocks ~good
       ~alive:(Array.init nf Fun.id) ~detections ~nth);
  Obs.Progress.finish progress;
  (detections, nth)

let run ?cancel c faults patterns =
  snd (run_general ?cancel ~engine:"ppsfp" ~n:1 c faults patterns)

let run_counts ?cancel ~n c faults patterns =
  if n < 1 then invalid_arg "Ppsfp.run_counts: n must be >= 1";
  run_general ?cancel
    ~annotate:(fun () -> Obs.Trace.add_int "n" n)
    ~engine:"ndetect.ppsfp" ~n c faults patterns
