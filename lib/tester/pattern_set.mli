(** An ordered production test program.

    Bundles the pattern sequence with its fault-simulation results: the
    cumulative coverage curve (what the paper's Section 5 reads off the
    fault simulator) and the per-fault first-detection index (what lets
    the virtual tester find a defective chip's first failing pattern in
    O(faults-on-chip) instead of re-simulating it).

    A program may additionally carry its n-detection profile, from the
    same grading pass ({!of_simulation} with [n_detect]), for rows and
    quality models that score patterns by detection multiplicity rather
    than first detection. *)

type t = {
  patterns : bool array array;
  profile : Fsim.Coverage.profile;
  n_detect : (int * Fsim.Coverage.profile) option;
      (** [Some (n, nth)] when the program was graded with drop rule
          [n]: [nth] is the n-th-detection profile
          ({!Fsim.Coverage.profiles}). *)
}

val make : bool array array -> Fsim.Coverage.profile -> t
(** The resulting program carries no n-detection grading. *)

val of_simulation :
  ?engine:Fsim.Coverage.engine ->
  ?n_detect:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> t
(** Fault-simulate the given ordered patterns in one pass
    ({!Fsim.Coverage.grade}) and bundle the result (default engine
    {!Fsim.Coverage.Parallel}; all engines produce identical profiles).
    With [n_detect] the pass drops a fault after [n_detect] detections
    and the program also carries the n-th-detection profile.  Raises
    [Invalid_argument] when [n_detect < 1]. *)

val pattern_count : t -> int

val coverage_after : t -> int -> float
(** Cumulative fault coverage after the first [k] patterns. *)

val final_coverage : t -> float

val first_fail : t -> int array -> int option
(** [first_fail t chip_faults] is the index of the first pattern that
    detects any of the chip's faults — the pattern at which the tester
    rejects the chip — or [None] if the chip passes the whole program.
    Fault indices refer to the universe the profile was built from. *)
