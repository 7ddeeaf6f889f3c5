(** Fault-coverage bookkeeping on top of the fault simulators.

    The paper's characterization procedure needs the cumulative fault
    coverage as a function of the number of applied patterns (its
    Section 5), and the per-fault first-detection index doubles as the
    virtual tester's lookup table (a chip containing fault [j] fails
    first at pattern [first_detection.(j)]). *)

type engine =
  | Serial    (** One fault at a time ({!Serial.extend}): the oracle. *)
  | Parallel  (** PPSFP ({!Ppsfp.extend}), the default. *)
  | Par of { domains : int }
      (** Multicore PPSFP ({!Par.extend}): fault universe sharded across
          [domains] OCaml domains, results bit-identical to
          {!Parallel}. *)

type profile = {
  universe_size : int;                (** Faults simulated. *)
  pattern_count : int;                (** Patterns applied. *)
  first_detection : int option array; (** Per fault, first detecting pattern. *)
}

type state = Ppsfp.state = {
  n : int;  (** Drop rule: a fault leaves after [n] detections ([>= 1]). *)
  detections : int array;  (** Per fault, detections seen, at most [n]. *)
  first : int option array;  (** Per fault, first detecting pattern. *)
  nth : int option array;
      (** Per fault, [n]-th detecting pattern; the same array as
          [first] when [n = 1]. *)
}
(** The one grading state every engine reads and writes.  A fault is
    alive while its [nth] entry is [None], so under the drop-after-n
    rule it stays alive past its first detection and one pass records
    both the paper's first detections (the tester's lookup table) and
    the n-th detections of n-detection grading (single detection
    overstates defect screening, Pomeranz & Reddy). *)

val state : n:int -> int -> state
(** [state ~n faults]: nothing detected yet among [faults] faults.
    Raises [Invalid_argument] when [n < 1]. *)

type grader
(** An engine bound to a circuit and its fault array, with the scratch
    its grading calls share: a slot per fault for gathering the alive
    ones and, on {!Parallel}, one PPSFP kernel and one good-word buffer.
    A grader is owned by one caller; it is what a caller that grades
    pattern after pattern (ATPG, test-set compaction) keeps. *)

val grader : ?engine:engine -> Circuit.Netlist.t -> Faults.Fault.t array -> grader
(** A grader on [engine] (default {!Parallel}).  It allocates nothing
    node-sized until its first call with a fault to grade. *)

val extend_with :
  ?cancel:Robust.Cancel.t -> grader -> state -> offset:int -> bool array array -> int
(** [extend_with g st ~offset patterns] grades [patterns], numbered from
    [offset], against the alive faults of [st], gathered in one pass
    over the faults in increasing index order, records their
    detections in place and returns how many reached [st.n] detections.
    Every engine gives identical results at a different cost, and a
    grader records what a fresh one would.  Per-fault results do not
    depend on the other faults, so grading slice by slice records
    exactly what one {!grade} does.  After [cancel] fires, the rest is
    left ungraded. *)

val extend :
  ?engine:engine ->
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  state ->
  offset:int ->
  bool array array ->
  int
(** [extend c faults st ~offset patterns] is {!extend_with} through a
    fresh {!grader}, used once. *)

val profiles : state -> pattern_count:int -> profile * profile
(** The state's first and n-th detections as {!profile}s over
    [pattern_count] patterns, sharing its arrays: read through the
    second, {!coverage_after}, {!curve} and the virtual tester report
    n-detect figures. *)

val grade :
  ?engine:engine ->
  ?cancel:Robust.Cancel.t ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  profile * profile
(** The {!profiles} of one drop-after-n pass ({!extend}) from a fresh
    state.  Raises [Invalid_argument] when [n < 1]. *)

val profile :
  ?engine:engine ->
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> profile
(** The first profile of {!grade} at [n = 1]; a cancelled run returns
    the partial profile. *)

val detected_count : profile -> int
(** Number of detected faults. *)

val final_coverage : profile -> float
(** Detected / universe size after all patterns. *)

val coverage_after : profile -> int -> float
(** [coverage_after p k] is the coverage achieved by the first [k]
    patterns. *)

val curve : profile -> (int * float) array
(** [(k, coverage after k patterns)] for k = 1 .. pattern_count —
    exactly the simulator-supplied curve of the paper's Fig. 5 x-axis. *)

val excluding :
  Circuit.Netlist.t ->
  profile ->
  universe:Faults.Fault.t array ->
  untestable:Faults.Fault.t array ->
  profile
(** Redundancy-corrected profile: drop the [untestable] faults (as
    proven by the lint subsystem) from both the detection array and the
    denominator.  [universe] must be the fault array the profile was
    computed over on the given circuit — it supplies the index-to-fault
    mapping.  On a complete test set, the corrected {!final_coverage}
    reaches 1.0 where the raw figure saturates at
    [1 - untestable/universe_size]; feeding corrected curves to the
    [n0] estimators removes the bias the redundant faults introduce.
    Raises [Invalid_argument] when lengths disagree or, as
    {!Faults.Fault.check} does, on a fault that is not a line of the
    circuit. *)

val restrict :
  Circuit.Netlist.t ->
  profile ->
  universe:Faults.Fault.t array ->
  keep:Faults.Fault.t array ->
  profile
(** Dual of {!excluding}: keep {e only} the faults of [keep] (e.g. the
    dominance-collapsed representatives from
    [Faults.Universe.collapse_dominance]) in both the detection array
    and the denominator.  [universe] must be the fault array the
    profile was computed over.  Faults of [keep] absent from [universe]
    are ignored.  Raises [Invalid_argument] as {!excluding} does. *)

val undetected : profile -> Faults.Fault.t array -> Faults.Fault.t list
(** Faults never detected by the pattern set (redundant or hard). *)
