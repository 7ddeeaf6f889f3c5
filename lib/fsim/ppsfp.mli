(** Parallel-pattern single-fault propagation (PPSFP) fault simulation.

    For each 64-pattern block the good machine is simulated once; each
    live fault is then evaluated only along its path to the root of its
    fanout-free region, and each region root is propagated once through
    its fanout cone, level by level, with copy-on-write faulty words.
    Faults are dropped once detected [n] times.  Produces
    byte-identical results to {!Serial.run} (differential-tested), at a
    fraction of the cost on large circuits.

    One allocation-free kernel does the work of {!extend} (and so of
    {!run}) and of every {!Par} shard ({!grade}).
    Its invariants:
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
    - a flip is propagated only until every flipped pattern has reached
      an output or died: a diverging output retires its patterns and
      queues no fanouts, the walk evaluates nothing once no pattern is
      left, and a root that is itself an output is observed on every
      flipped pattern without evaluating a gate;
    - words live unboxed in [Bytes] and are evaluated by
      {!Logicsim.Packed.eval_gate}; a node's faulty word is valid only
      while its stamp equals the current generation, and a new
      generation starts with every local evaluation and every root
      flip that propagates;
    - pending nodes sit in one flat [int array] partitioned by level;
    - the alive faults are an [int array] grouped by root with a
      counting sort, and compacted in place after every block.

    Malformed faults are rejected at entry by {!Faults.Fault.check}. *)

type state = {
  n : int;
  detections : int array;
  first : int option array;
  nth : int option array;
}
(** The grading state, documented where it is re-exported as
    {!Coverage.state}. *)

val state : n:int -> int -> state
(** Same as {!Coverage.state}. *)

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

val record_detections : state -> block_start:int -> int64 -> int -> bool
(** Drop-after-n bookkeeping shared by every engine: fold the detection
    [mask] of fault [fi] on the block starting at pattern [block_start]
    into the state (first detection, saturated count, n-th detection),
    and return whether the fault stays alive. *)

type kernel
(** One domain's scratch for {!grade} on one circuit: the region roots,
    the faulty words and their stamps, the event queue and the counts
    of the sort by root.  A kernel serves any number of {!grade} calls
    on its circuit, one at a time. *)

val kernel : Circuit.Netlist.t -> kernel

type grader
(** The single-domain engine's scratch: a {!kernel} and the buffer the
    good machine is evaluated into, block by block. *)

val grader : Circuit.Netlist.t -> grader

val extend :
  ?cancel:Robust.Cancel.t ->
  grader -> Faults.Fault.t array -> state -> alive:int array ->
  offset:int -> bool array array -> int
(** {!Coverage.extend} on this engine and the grader's circuit, over the
    faults whose indices [alive] holds (reordered and compacted in
    place).  A grader serves any number of calls, and each records what
    it would through a fresh one. *)

val grade_all :
  (Circuit.Netlist.t -> Faults.Fault.t array -> state -> alive:int array ->
   offset:int -> bool array array -> int) ->
  n:int -> Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  state
(** Every fault graded by an engine's [extend] from a fresh state with
    drop rule [n]: the body of the engines' [run] and [run_counts]. *)

(** {2 The block loop}

    Exposed so that {!Par} runs the identical loop on every domain. *)

val shards :
  Circuit.Netlist.t -> Faults.Fault.t array -> int array -> domains:int ->
  int array array
(** [shards c faults alive ~domains] splits the fault indices [alive]
    into [domains] disjoint sets (some possibly empty) for {!grade} to
    run independently: faults are grouped by fanout-free region and
    whole regions are dealt round-robin, in increasing root order, so
    each root is flipped by one set only.  The faults must already have
    passed {!Faults.Fault.check}; [domains] must be >= 1. *)

val grade :
  ?cancel:Robust.Cancel.t ->
  ?on_block:(unit -> unit) ->
  engine:string ->
  progress:Obs.Progress.t ->
  kernel ->
  Faults.Fault.t array ->
  blocks:Logicsim.Packed.block array ->
  good:(int -> Bytes.t) ->
  offset:int ->
  state ->
  alive:int array ->
  int
(** [grade ~engine ~progress k faults ~blocks ~good ~offset st ~alive]
    grades the faults whose indices [alive] holds against every block
    of the kernel's circuit, the first block starting at pattern
    [offset], into [st]
    ({!record_detections}), and returns how many of them it dropped.
    [good b] returns the good-machine words
    ({!Logicsim.Packed.eval_words}) of block [b]; the loop only reads
    them, and asks only while some fault is alive and [cancel] has not
    fired.  [alive] is reordered in place, grouped by region root, and
    then compacted as faults drop, so on return its contents are
    unspecified; only its faults' slots of the state are written.
    After every block the loop steps [progress] by the block's pattern
    count and calls [on_block]; while faults are alive it also adds
    their number to ["fsim.<engine>.fault_evals"], the number of roots
    it flipped to ["fsim.<engine>.root_flips"] and the gates those
    flips evaluated to ["fsim.<engine>.flip_evals"].  The faults must
    already have passed {!Faults.Fault.check}. *)
