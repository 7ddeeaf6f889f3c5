(** Complete test-generation flow: random phase, then PODEM clean-up.

    This is how the ordered pattern sets used in the paper's experiment
    are produced.  The resulting pattern order (broad random detection
    first, targeted patterns later) gives exactly the steeply-rising
    coverage curve the paper describes for production test programs. *)

type config = {
  random_budget : int;     (** Max random patterns before the deterministic phase. *)
  random_target : float;   (** Stop random phase at this coverage. *)
  backtrack_limit : int;   (** Deterministic budget per fault. *)
  seed : int;
  use_analysis : bool;
      (** Build a static {!Analysis.Engine.t} (dominators + learned
          implications) once per run and hand it to every
          {!Podem.generate} call — untestability proofs before search,
          unique sensitization and objective pruning.  A test or
          untestable verdict never flips, but an abort may be proved
          untestable, and the search order, and with it the
          deterministic patterns, may differ.  Default off. *)
  learn_depth : int;
      (** Implication learning depth when [use_analysis] is set.  Must
          be >= 0 whether or not an engine is built. *)
  exact_budget : int option;
      (** When [Some budget], build the {!Analysis.Exact} ROBDD bundle
          into the engine, so that the untestability proofs PODEM asks
          for before search include the BDD's exact redundancies.
          Default [None]. *)
  podem_time_budget_s : float option;
      (** Per-fault wall-clock budget for each {!Podem.generate} call;
          a fault whose search exceeds it counts as [aborted].  Makes
          verdicts timing-dependent — leave [None] (the default) for
          reproducible runs. *)
}

val default_config : config

type report = {
  patterns : bool array array;        (** Final ordered pattern set. *)
  profile : Fsim.Coverage.profile;
      (** Over the supplied universe: every PODEM pattern is graded
          against every fault still undetected, earlier aborts among
          them, so this is what a regrade of [patterns] reports. *)
  random_patterns : int;              (** Patterns from the random phase. *)
  deterministic_patterns : int;       (** Patterns from PODEM. *)
  untestable : int;                   (** Proved redundant. *)
  aborted : int;                      (** PODEM gave up within budget. *)
  unknown : int;
      (** Targets never reached (or interrupted mid-search) because the
          cancel token fired: no verdict at all, retried on resume.
          Always 0 on an uncancelled run. *)
}

type checkpointing = {
  path : string;   (** Checkpoint file ({!Robust.Checkpoint} format). *)
  every : int;     (** Save after this many targets processed (>= 1). *)
  resume : bool;   (** Restore [path] before the deterministic phase. *)
}

val run :
  ?config:config ->
  ?cancel:Robust.Cancel.t ->
  ?checkpoint:checkpointing ->
  Circuit.Netlist.t -> Faults.Fault.t array -> report
(** [cancel] is polled before each deterministic target and inside each
    PODEM search (see {!Podem.generate}); a cancelled run returns a
    well-defined partial report whose unresolved targets are counted in
    [unknown].  The random phase always runs to completion — it is a
    pure function of the config, which is what lets a resume re-derive
    it instead of storing patterns in the checkpoint.  With
    [checkpoint], the incremental deterministic state is snapshotted
    crash-safely every [every] targets and once more at exit; a resumed
    run continues from the last snapshot and produces a report
    bit-identical to an uninterrupted one (given no time budget).  The
    resume grades the snapshot's patterns once more against every fault
    it leaves undetected, so a snapshot that lacks a detection by one
    of its own patterns still resumes to that report.
    Raises {!Robust.Checkpoint.Mismatch} when [resume] is set and the
    file is unreadable, was written by a run with different inputs, or
    holds a state this run cannot reach: an extra pattern that is not
    one 0/1 character per circuit input, a detection index that is
    neither -1 nor below the random plus extra pattern count, a negative
    untestable or aborted count, more verdicts (untestable, aborted and
    extra patterns together) than processed targets, or more processed
    targets than there are.  Raises [Invalid_argument] when
    [every < 1] or [config.learn_depth < 0]. *)

val coverage : report -> float
(** Final fault coverage of the generated set. *)
