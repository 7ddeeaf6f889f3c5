(** Parallel-pattern single-fault propagation (PPSFP) fault simulation.

    For each 64-pattern block the good machine is simulated once; each
    live fault is then evaluated only along its path to the root of its
    fanout-free region, and each region root is propagated once through
    its fanout cone, level by level, with copy-on-write faulty words.
    Faults are dropped once detected [n] times.  Produces
    byte-identical results to {!Serial.run} (differential-tested), at a
    fraction of the cost on large circuits.

    One allocation-free kernel does the work of {!run}, {!run_counts}
    and every {!Par} shard ({!grade}).  Its invariants:
    - a node's fanout-free-region (FFR) root is the node itself when it
      is an output or does not have exactly one fanout, else its one
      fanout's root.  An FFR has no reconvergence, so a fault in it
      reaches the rest of the circuit only through the root, along one
      path: its detection word is exactly its local mask (the patterns
      on which it flips the root) AND the root's observability mask
      (the patterns on which flipping the root reaches an output);
    - per block, each alive fault is evaluated along its path to the
      root, and the root is flipped once, on the patterns where some
      alive fault of its region reaches it;
    - words live unboxed in [Bytes] and are evaluated by
      {!Logicsim.Packed.eval_gate}; a node's faulty word is valid only
      while its stamp equals the current generation, and a new
      generation starts with every local evaluation and every root
      flip;
    - pending nodes sit in one flat [int array] partitioned by level;
    - the alive faults are an [int array] grouped by root with a
      counting sort, and compacted in place after every block.

    Malformed faults are rejected at entry by {!Faults.Fault.check}. *)

val run :
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option array
(** Same contract as {!Serial.run}: per fault, first detecting pattern
    index, with fault dropping.  [cancel] is polled per 64-pattern
    block; see {!Serial.run} for the partial-result contract.  Set-up
    is O(nodes + faults), so grading one pattern at a time (as ATPG
    does) stays cheap. *)

val lowest_set_bit : int64 -> int
(** Index of the lowest set bit (constant time; raises
    [Invalid_argument] on zero).  Bit [i] is pattern [i] of a block. *)

val popcount : int64 -> int
(** Number of set bits (branch-free SWAR). *)

val nth_set_bit : int64 -> int -> int
(** [nth_set_bit w k] is the index of the [k]-th (1-based) set bit of
    [w]; [nth_set_bit w 1 = lowest_set_bit w].  Raises
    [Invalid_argument] when [w] has fewer than [k] set bits or
    [k < 1]. *)

val record_detections :
  n:int ->
  block_start:int ->
  detections:int array ->
  nth:int option array ->
  int64 -> int -> bool
(** Drop-after-n bookkeeping shared by the n-detection engines: fold
    the detection [mask] of fault [fi] on the block starting at pattern
    [block_start] into [detections.(fi)] (saturating at [n]), record
    the n-th detecting pattern index in [nth.(fi)] when the count
    reaches [n], and return whether the fault stays alive (i.e. still
    needs detections). *)

val run_counts :
  ?cancel:Robust.Cancel.t ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  int array * int option array
(** n-detection grading with the drop-after-n policy: per fault, count
    detecting patterns until [n] of them have been seen, then drop the
    fault.  Returns [(detections, nth)]: the per-fault detection count
    saturated at [n], and the index of the [n]-th detecting pattern
    ([None] when fewer than [n] patterns detect the fault).  With
    [n = 1] the result is bit-identical to {!run}: [nth] equals the
    first-detection array and [detections] is its indicator.  Raises
    [Invalid_argument] when [n < 1]. *)

(** {2 The block loop}

    Exposed so that {!Par} runs the identical loop on every domain. *)

val shards :
  Circuit.Netlist.t -> Faults.Fault.t array -> domains:int -> int array array
(** [shards c faults ~domains] splits the indices of [faults] into
    [domains] disjoint sets (some possibly empty) for {!grade} to run
    independently: faults are grouped by fanout-free region and whole
    regions are dealt round-robin, in increasing root order, so each
    root is flipped by one set only.  The faults must already have
    passed {!Faults.Fault.check}; [domains] must be >= 1. *)

val grade :
  ?cancel:Robust.Cancel.t ->
  ?on_block:(unit -> unit) ->
  engine:string ->
  n:int ->
  progress:Obs.Progress.t ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  blocks:Logicsim.Packed.block array ->
  good:(int -> Bytes.t) ->
  alive:int array ->
  detections:int array ->
  nth:int option array ->
  int
(** [grade ~engine ~n ~progress c faults ~blocks ~good ~alive
    ~detections ~nth] grades the faults whose indices [alive] holds
    against every block, with drop rule [n] ({!record_detections}), and
    returns how many of them it dropped.  [good b] returns the
    good-machine words ({!Logicsim.Packed.eval_words}) of block [b]; the
    loop only reads them, and asks only while some fault is alive and
    [cancel] has not fired.  [alive] is reordered in place, grouped by
    region root, and then compacted as faults drop, so on return its
    contents are unspecified; only its faults' slots of
    [detections]/[nth] are written.  After every block the loop steps
    [progress] by the block's pattern count and calls [on_block]; while
    faults are alive it also adds their number to
    ["fsim.<engine>.fault_evals"] and the number of roots it flipped to
    ["fsim.<engine>.root_flips"].  The faults must already have passed
    {!Faults.Fault.check}. *)
