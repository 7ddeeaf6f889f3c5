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
          {!Podem.generate} call — unique sensitization, objective
          pruning and pre-search untestability verdicts.  Verdicts are
          unchanged; only the search effort shrinks.  Default off. *)
  learn_depth : int;
      (** Implication learning depth when [use_analysis] is set. *)
  exact_budget : int option;
      (** When [Some budget], build the {!Analysis.Exact} ROBDD bundle
          and let PODEM settle fault verdicts before search: exact
          Untestable proofs skip the search outright, exact Testable
          skips the (then provably fruitless) static untestability
          checks.  Default [None]. *)
  hybrid : bool;
      (** Principled random/deterministic cutover: cap the random
          phase at {!Analysis.Detectability.cutover} — the statically
          predicted pattern count where the marginal gain of another
          64-pattern block flattens — instead of the full
          [random_budget], and order the deterministic phase so the
          provably random-pattern-resistant faults
          ([d_hi < resistant_threshold]) are targeted first.  On
          random-pattern-resistant circuits this reaches at least the
          pure-random coverage with fewer total patterns (checked on
          a 5-to-32 decoder by the [tpg] tests).  Default off. *)
  resistant_threshold : float;
      (** Detection-probability bound below which a fault counts as
          random-pattern-resistant in hybrid mode (default 0.01). *)
  podem_time_budget_s : float option;
      (** Per-fault wall-clock budget for each {!Podem.generate} call;
          a fault whose search exceeds it counts as [aborted].  Makes
          verdicts timing-dependent — leave [None] (the default) for
          reproducible runs. *)
}

val default_config : config

type report = {
  patterns : bool array array;        (** Final ordered pattern set. *)
  profile : Fsim.Coverage.profile;    (** Over the supplied universe. *)
  random_patterns : int;              (** Patterns from the random phase. *)
  deterministic_patterns : int;       (** Patterns from PODEM. *)
  untestable : int;                   (** Proved redundant. *)
  aborted : int;                      (** PODEM gave up within budget. *)
  unknown : int;
      (** Targets never reached (or interrupted mid-search) because the
          cancel token fired: no verdict at all, retried on resume.
          Always 0 on an uncancelled run. *)
  predicted_cutover : int option;
      (** Static random-phase cap used by hybrid mode; [None] when
          [hybrid] was off. *)
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
    bit-identical to an uninterrupted one (given no time budget).
    Raises {!Robust.Checkpoint.Mismatch} when [resume] is set and the
    file is unreadable or was written by a run with different inputs;
    raises [Invalid_argument] when [every < 1]. *)

val coverage : report -> float
(** Final fault coverage of the generated set. *)
