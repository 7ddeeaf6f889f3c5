(** Fault-coverage bookkeeping on top of the fault simulators.

    The paper's characterization procedure needs the cumulative fault
    coverage as a function of the number of applied patterns (its
    Section 5), and the per-fault first-detection index doubles as the
    virtual tester's lookup table (a chip containing fault [j] fails
    first at pattern [first_detection.(j)]). *)

type engine =
  | Serial    (** One fault at a time ({!Serial.run}): the oracle. *)
  | Parallel  (** PPSFP ({!Ppsfp.run}), the default. *)
  | Par of { domains : int }
      (** Multicore PPSFP ({!Par.run}): fault universe sharded across
          [domains] OCaml domains, results bit-identical to
          {!Parallel}. *)

type profile = {
  universe_size : int;                (** Faults simulated. *)
  pattern_count : int;                (** Patterns applied. *)
  first_detection : int option array; (** Per fault, first detecting pattern. *)
}

val profile :
  ?engine:engine ->
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> profile
(** Run fault simulation (default {!Parallel}; every engine gives
    identical results at a different cost) and package the result.
    [cancel] reaches the block loops of every engine; a cancelled run
    returns the partial profile. *)

type counts = {
  require : int;
      (** The n of n-detect ([>= 1]). *)
  detections : int array;
      (** Per fault, detecting patterns seen, saturated at [require]. *)
  nth_profile : profile;
      (** The [require]-th detection viewed as a {!profile}:
          [first_detection.(j)] is the index of the [require]-th
          pattern detecting fault [j] ([None] when fewer than
          [require] patterns detect it). *)
}
(** n-detection profile: single-detection coverage overstates defect
    screening (Pomeranz & Reddy), so production flows grade how {e
    often} each fault is detected.  Computed with a drop-after-n
    policy: a fault leaves the simulation once [require] distinct
    patterns have detected it. *)

val detection_counts :
  ?engine:engine ->
  ?cancel:Robust.Cancel.t ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> counts
(** Run n-detection fault simulation with each engine's drop-after-n
    kernel ({!Serial.run_counts}, {!Ppsfp.run_counts},
    {!Par.run_counts}).  With [n = 1], [nth_detection] is bit-identical
    to the {!profile}'s [first_detection] on every engine.  Raises
    [Invalid_argument] when [n < 1]. *)

val n_detect_profile : counts -> profile
(** [nth_profile], as a function: the n-detection result as an
    ordinary {!profile} whose "first detection" is the [require]-th
    detection — every downstream consumer ({!coverage_after}, {!curve},
    {!undetected}, the virtual tester) then reports n-detect
    figures. *)

val n_detect_coverage : counts -> float
(** Fraction of faults detected at least [require] times. *)

val n_detect_coverage_after : counts -> int -> float
(** [n_detect_coverage_after cs k]: fraction of faults whose
    [require]-th detection happens within the first [k] patterns. *)

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
  profile ->
  universe:Faults.Fault.t array ->
  untestable:Faults.Fault.t array ->
  profile
(** Redundancy-corrected profile: drop the [untestable] faults (as
    proven by the lint subsystem) from both the detection array and the
    denominator.  [universe] must be the fault array the profile was
    computed over — it supplies the index-to-fault mapping.  On a
    complete test set, the corrected {!final_coverage} reaches 1.0
    where the raw figure saturates at
    [1 - untestable/universe_size]; feeding corrected curves to the
    [n0] estimators removes the bias the redundant faults introduce.
    Raises [Invalid_argument] when lengths disagree. *)

val restrict :
  profile ->
  universe:Faults.Fault.t array ->
  keep:Faults.Fault.t array ->
  profile
(** Dual of {!excluding}: keep {e only} the faults of [keep] (e.g. the
    dominance-collapsed representatives from
    [Faults.Universe.collapse_dominance]) in both the detection array
    and the denominator.  [universe] must be the fault array the
    profile was computed over.  Faults of [keep] absent from [universe]
    are ignored.  Raises [Invalid_argument] when lengths disagree. *)

val undetected : profile -> Faults.Fault.t array -> Faults.Fault.t list
(** Faults never detected by the pattern set (redundant or hard). *)
