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

(* Fanout-free regions (FFRs).  A node's root is the node itself when
   it is an output or does not have exactly one fanout, else its one
   fanout's root; reverse topological order visits that fanout first.
   A region has no reconvergence: a fault inside it reaches the rest of
   the circuit only through its root, along the one path of single
   fanouts from its site. *)
let ffr_roots (c : Circuit.Netlist.t) =
  let root = Array.make (Circuit.Netlist.num_nodes c) 0 in
  let topo = c.topo_order in
  for k = Array.length topo - 1 downto 0 do
    let u = topo.(k) in
    let outs = c.fanouts.(u) in
    root.(u) <-
      (if c.output_flags.(u) || Array.length outs <> 1 then u
       else root.(outs.(0)))
  done;
  root

let[@inline] root_of root fault = root.(Faults.Fault.site_node fault)

(* Stable counting sort of the fault indices [alive] by region root, in
   increasing root order: O(nodes + faults), so grading one pattern at
   a time (as ATPG does) stays cheap. *)
let group_by_root root faults alive =
  let start = Array.make (Array.length root + 1) 0 in
  Array.iter
    (fun fi ->
      let r = root_of root faults.(fi) in
      start.(r + 1) <- start.(r + 1) + 1)
    alive;
  for r = 1 to Array.length root do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  let sorted = Array.make (Array.length alive) 0 in
  Array.iter
    (fun fi ->
      let r = root_of root faults.(fi) in
      sorted.(start.(r)) <- fi;
      start.(r) <- start.(r) + 1)
    alive;
  Array.blit sorted 0 alive 0 (Array.length alive)

let shards c faults ~domains =
  let root = ffr_roots c in
  let order = Array.init (Array.length faults) Fun.id in
  group_by_root root faults order;
  (* Deal the regions round-robin, in increasing root order. *)
  let shards = Array.make domains [] and region = ref (-1) in
  Array.iteri
    (fun j fi ->
      if j = 0 || root_of root faults.(fi) <> root_of root faults.(order.(j - 1))
      then incr region;
      let i = !region mod domains in
      shards.(i) <- fi :: shards.(i))
    order;
  Array.map (fun faults -> Array.of_list (List.rev faults)) shards

(* Per-domain scratch of the kernel.  A faulty word [faulty] at node
   [u] is valid only while [stamp.(u) = generation]; every local
   evaluation and every root flip starts a new generation, so nothing
   is ever cleared.  The event queue is one flat array partitioned by
   level: level [l]'s pending nodes are
   [queue.(first.(l)) .. queue.(first.(l) + fill.(l) - 1)], and a node
   is queued at most once per generation ([queued.(u) = generation]),
   so each level's segment is as long as the number of nodes on that
   level. *)
type kernel = {
  circuit : Circuit.Netlist.t;
  root : int array;
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
  let depth = Circuit.Netlist.depth c in
  let first = Array.make (depth + 2) 0 in
  Array.iter (fun l -> first.(l + 1) <- first.(l + 1) + 1) c.levels;
  for l = 1 to depth + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  { circuit = c; root = ffr_roots c; faulty = Logicsim.Packed.words c;
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

(* Patterns (within [live]) on which node [u]'s faulty word differs
   from its good word. *)
let[@inline] diverges k good ~live u =
  Int64.logand
    (Int64.logxor (Bytes.get_int64_ne k.faulty (u lsl 3))
       (Bytes.get_int64_ne good (u lsl 3)))
    live

(* A fault's local mask over one block whose good words are [good]: the
   patterns (within [live]) on which it flips its region's root.  The
   fault is injected at its site and evaluated up the site's path of
   single fanouts; the walk stops as soon as the effect dies. *)
let[@inline] local k good ~live fault =
  k.generation <- k.generation + 1;
  let generation = k.generation in
  let c = k.circuit and faulty = k.faulty and stamp = k.stamp in
  let forced =
    match fault.Faults.Fault.polarity with
    | Faults.Fault.Stuck_at_0 -> 0L
    | Faults.Fault.Stuck_at_1 -> -1L
  in
  let site =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v ->
      Bytes.set_int64_ne faulty (v lsl 3) forced;
      v
    | Faults.Fault.Branch { gate; pin } ->
      Logicsim.Packed.eval_gate c ~good ~faulty ~stamp ~generation ~pin ~forced gate;
      gate
  in
  let root = k.root.(site) in
  let node = ref site in
  let d = ref (diverges k good ~live site) in
  while !d <> 0L && !node <> root do
    stamp.(!node) <- generation;
    let v = c.fanouts.(!node).(0) in
    Logicsim.Packed.eval_gate c ~good ~faulty ~stamp ~generation ~pin:(-1)
      ~forced:0L v;
    node := v;
    d := diverges k good ~live v
  done;
  !d

(* The observability mask of root [r]: flip [r] on the patterns [live]
   and propagate the flip through its fanout cone, level by level;
   returns the patterns on which some primary output diverges.  A
   node's faulty word is written into its slot, then stamped (and its
   fanouts queued) only when it differs from the good word on a live
   pattern. *)
let[@inline] observe k good ~live r =
  k.generation <- k.generation + 1;
  let generation = k.generation in
  let c = k.circuit and stamp = k.stamp in
  Bytes.set_int64_ne k.faulty (r lsl 3)
    (Int64.lognot (Bytes.get_int64_ne good (r lsl 3)));
  stamp.(r) <- generation;
  let out = ref (if c.output_flags.(r) then live else 0L) in
  k.top <- 0;
  schedule_fanouts k r;
  let level = ref (c.levels.(r) + 1) in
  while !level <= k.top do
    let l = !level in
    let base = k.first.(l) in
    for j = base to base + k.fill.(l) - 1 do
      let u = k.queue.(j) in
      Logicsim.Packed.eval_gate c ~good ~faulty:k.faulty ~stamp ~generation
        ~pin:(-1) ~forced:0L u;
      let d = diverges k good ~live u in
      if d <> 0L then begin
        stamp.(u) <- generation;
        if c.output_flags.(u) then out := Int64.logor !out d;
        schedule_fanouts k u
      end
    done;
    k.fill.(l) <- 0;
    incr level
  done;
  !out

(* One block: the alive faults come in runs that share a region.  Each
   run's local masks are kept in [locals] by position in [alive]; the
   root is flipped once, on the patterns where some fault of the run
   reaches it, and each fault's detection word is its local mask AND
   the root's observability mask. *)
let grade ?(cancel = Robust.Cancel.none) ?(on_block = ignore) ~engine ~n
    ~progress c faults ~blocks ~good ~alive ~detections ~nth =
  let k = kernel c in
  group_by_root k.root faults alive;
  let locals = Bytes.create (8 * Array.length alive) in
  let alive_count = ref (Array.length alive) in
  let dropped = ref 0 in
  let block_start = ref 0 in
  for b = 0 to Array.length blocks - 1 do
    let block = blocks.(b) in
    if !alive_count > 0 && not (Robust.Cancel.stop_requested cancel) then begin
      let good = good b in
      let live = Logicsim.Packed.live_mask block in
      let count = !alive_count in
      let kept = ref 0 and flips = ref 0 and first = ref 0 in
      while !first < count do
        let r = root_of k.root faults.(alive.(!first)) in
        let stop = ref !first and reached = ref 0L in
        while !stop < count && root_of k.root faults.(alive.(!stop)) = r do
          let mask = local k good ~live faults.(alive.(!stop)) in
          Bytes.set_int64_ne locals (!stop lsl 3) mask;
          reached := Int64.logor !reached mask;
          incr stop
        done;
        let observed =
          if !reached = 0L then 0L
          else begin
            incr flips;
            observe k good ~live:!reached r
          end
        in
        for j = !first to !stop - 1 do
          let fi = alive.(j) in
          let mask = Int64.logand (Bytes.get_int64_ne locals (j lsl 3)) observed in
          if record_detections ~n ~block_start:!block_start ~detections ~nth mask fi
          then begin
            alive.(!kept) <- fi;
            incr kept
          end
          else incr dropped
        done;
        first := !stop
      done;
      alive_count := !kept;
      if Instrument.observing () then begin
        Instrument.count_fault_evals ~engine count;
        Instrument.count_root_flips ~engine !flips
      end
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
