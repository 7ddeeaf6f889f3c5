(** Statistical fault sampling.

    Grading a full LSI fault universe was expensive on 1981 hardware,
    so production flows graded a random {e sample} of faults and
    reported the sampled coverage with a confidence interval — the
    fault-coverage figure entering the paper's model is itself often a
    sample estimate.  Sampling without replacement from a universe of
    [N] faults makes the detected count hypergeometric; the interval
    below is a Wilson score interval with the finite-population
    correction folded in as an effective sample size.  (The Wald
    interval [p +/- z*se] used previously is degenerate at the
    endpoints — a sample that detects all or none of its faults got a
    zero-width interval, overstating certainty exactly where samples
    mislead most.) *)

type estimate = {
  coverage : float;        (** Sample fault coverage. *)
  std_error : float;       (** Wald standard error, with finite-population
                               correction (reported for reference). *)
  lower_95 : float;        (** Wilson score bound, in [0, 1]. *)
  upper_95 : float;
  sample_size : int;
  universe_size : int;
}

val estimate_coverage :
  ?collapse_dominance:bool ->
  ?n_detect:int ->
  Stats.Rng.t ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  sample_size:int ->
  bool array array ->
  estimate
(** Draw [sample_size] faults without replacement, fault-simulate only
    those ({!Coverage.Parallel}), and report the estimated coverage of
    the full universe.  If [sample_size >= Array.length universe] the
    answer is exact with a zero-width interval.  To estimate the
    redundancy-corrected coverage, pass the corrected universe
    ({!Faults.Universe.exclude_untestable}): sampling faults that no
    pattern can detect would bias the estimate low.
    [collapse_dominance] (default [false]) first replaces the universe
    by its dominance-collapsed representatives
    ({!Faults.Universe.collapse_dominance}).  [n_detect] (default 1)
    is the drop rule of the one grading pass ({!Coverage.grade}): a
    fault counts as covered only when detected [n_detect] times, so the
    estimate is the n-detect coverage with the same interval
    machinery. *)
