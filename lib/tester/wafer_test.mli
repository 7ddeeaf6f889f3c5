(** The virtual wafer test system (the reproduction's Sentry 600).

    Runs an ordered test program against every chip of a manufactured
    lot, records the first failing pattern of each chip, and reduces
    the outcomes to the paper's Table-1 presentation: cumulative
    fraction of chips failed as a function of fault coverage.

    Two tester fidelities:
    - {!Table_lookup}: a chip fails at the earliest first-detection
      pattern of any of its faults (single-fault superposition — the
      assumption behind the paper's urn model).  O(1) per chip fault.
    - {!Exact_multifault}: the chip's complete fault set is injected
      simultaneously and simulated, so masking between coexisting
      faults is honoured.  The ablation bench compares the two. *)

type mode = Table_lookup | Exact_multifault

type outcome = {
  chip_id : int;
  fault_count : int;
  first_fail : int option;  (** Pattern index, [None] = passed. *)
}

type result = {
  outcomes : outcome array;
  pattern_count : int;
  lot_size : int;
}

val test_lot :
  ?on_chip:(unit -> unit) ->
  ?mode:mode ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  Pattern_set.t ->
  Fab.Lot.t ->
  result
(** [test_lot c universe program lot]: the universe must be the one the
    lot's fault indices refer to and the program was simulated
    against.  Raises [Invalid_argument] on an empty lot — every
    fraction below divides by the lot size, and an empty lot would
    silently turn them all into NaN.  [on_chip] is called after each
    chip, as in {!Fab.Lot.manufacture}. *)

val failed_by : result -> int -> int
(** Chips failed within the first [k] patterns.  [first_fail] indices
    are 0-based, so this counts outcomes with [first_fail < k]: a chip
    with [first_fail = Some 0] fails the very first applied pattern
    and is already counted by [failed_by result 1], while
    [failed_by result 0] (no patterns applied yet) is always 0. *)

val fraction_failed_by : result -> int -> float
(** [failed_by] over the lot size (never NaN: lots are non-empty). *)

val apparent_yield : result -> float
(** Fraction of chips passing the whole program — what the line sees,
    as opposed to the true yield. *)

val test_escapes : result -> int
(** Defective chips that passed: the bad-chips-tested-good count whose
    expectation is the paper's Ybg (Eq. 6/7). *)

type row = {
  coverage : float;         (** Fault coverage at the checkpoint. *)
  patterns_applied : int;
  cumulative_failed : int;
  fraction_failed : float;
}

val rows_at_patterns : result -> Pattern_set.t -> checkpoints:int list -> row list
(** Table-1-style rows at explicit pattern counts. *)

val rows_at_coverages : result -> Pattern_set.t -> coverages:float list -> row list
(** Table-1-style rows at the first pattern reaching each coverage
    level (levels the program never reaches are skipped).  Checkpoint
    lookup binary-searches the monotone cumulative-coverage curve —
    O(log patterns) per level.  Over a program whose profile is an
    n-th-detection profile ({!Pattern_set.t.n_detect}), the rows sit on
    the n-detect axis, where the same lot fails later. *)
