(** Serial fault simulation.

    The straightforward algorithm: for every fault, re-simulate the
    whole circuit with the fault injected and compare primary outputs
    against the good machine.  Patterns are still processed 64 at a
    time through {!Logicsim.Packed}, so "serial" refers to faults, not
    patterns.  Used as the oracle for {!Ppsfp} and for small circuits.

    One injector serves a single fault and a fault set alike: per-line
    AND/OR masks in arrays, read by the oracle's own gate evaluator
    (independent of {!Logicsim.Packed.eval_gate}).  One block loop,
    {!extend}, serves {!run} (drop rule 1, engine label ["serial"]) and
    {!run_counts} (label ["ndetect.serial"] when [n > 1]). *)

val eval_with_fault :
  Circuit.Netlist.t -> Faults.Fault.t -> Logicsim.Packed.block -> int64 array
(** Full faulty-machine simulation of one block; result indexed by node.
    The fault set of one ({!eval_with_fault_set}). *)

val detect_word :
  Circuit.Netlist.t ->
  good_outputs:int64 array ->
  Faults.Fault.t ->
  Logicsim.Packed.block ->
  int64
(** Bit mask (within the block's live mask) of patterns on which at
    least one primary output of the faulty machine differs from
    [good_outputs]. *)

val run :
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option array
(** [run c faults patterns] returns, for each fault, the index of the
    first pattern that detects it ([None] = undetected).  Detected
    faults are dropped from later blocks.  [cancel] is polled at every
    64-pattern block boundary; after it fires the remaining blocks are
    skipped, leaving a well-defined partial result (every recorded
    detection is real; undetected may mean unsimulated). *)

val extend :
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> Ppsfp.state -> alive:int array ->
  offset:int -> bool array array -> int
(** {!Coverage.extend} on the oracle, as {!Ppsfp.extend}. *)

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
    [n = 1] [nth] is bit-identical to {!run}.  Raises
    [Invalid_argument] when [n < 1]. *)

val eval_with_fault_set :
  Circuit.Netlist.t -> Faults.Fault.t array -> Logicsim.Packed.block -> int64 array
(** Multiple-fault machine: all faults of the set injected at once.
    Used by the virtual tester to model a defective chip {e exactly},
    including masking between coexisting faults.  If the set contains
    both polarities on one line, stuck-at-1 wins (deterministic,
    documented arbitrariness — physical defects do not do this).
    Raises [Invalid_argument], as {!Faults.Fault.check} does, on a
    fault that is not a line of the circuit. *)

val first_fail_with_fault_set :
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option
(** First pattern on which the multiple-fault machine differs from the
    good machine at any primary output. *)
