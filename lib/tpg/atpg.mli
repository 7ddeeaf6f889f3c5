(** Complete test-generation flow: random phase, then PODEM clean-up,
    with a SAT proof for the targets PODEM finds hard: a proof of
    untestability, or a model that is the target's test.

    This is how the ordered pattern sets used in the paper's experiment
    are produced.  The resulting pattern order (broad random detection
    first, targeted patterns later) gives exactly the steeply-rising
    coverage curve the paper describes for production test programs. *)

type config = {
  random_budget : int;     (** Max random patterns before the deterministic phase. *)
  random_target : float;   (** Stop random phase at this coverage. *)
  backtrack_limit : int;
      (** Backtrack budget of the full PODEM search a target gets when
          its proof runs out of conflicts; the first search gets
          [min first_backtrack_limit backtrack_limit]. *)
  seed : int;
  podem_time_budget_s : float option;
      (** Per-target wall-clock budget: the first PODEM search gets all
          of it, the second what the first search and the proof left;
          a target whose search exceeds it counts as [aborted] unless
          the proof settles it.  Makes verdicts timing-dependent — leave
          [None] (the default) for reproducible runs. *)
}

val default_config : config

type report = {
  patterns : bool array array;        (** Final ordered pattern set. *)
  profile : Fsim.Coverage.profile;
      (** Over the supplied universe: every PODEM pattern is graded
          against every fault still undetected, earlier aborts among
          them, so this is what a regrade of [patterns] reports. *)
  random_patterns : int;              (** Patterns from the random phase. *)
  deterministic_patterns : int;
      (** Patterns from PODEM or a proof's model. *)
  untestable : int;
      (** Proved redundant, by PODEM's search or by {!prove}. *)
  aborted : int;
      (** Neither PODEM within the first budget, nor {!prove}, nor PODEM
          within the full budget settled them. *)
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
(** Each target not yet detected gets up to three steps: PODEM with
    [min first_backtrack_limit config.backtrack_limit] backtracks; if
    that aborts, {!prove}, whose [Untestable] settles the target and
    whose [Test] model becomes its pattern, graded and checked like a
    PODEM one; only if the proof runs out, PODEM again with the full
    [backtrack_limit].  A search with a smaller limit is a prefix of the
    same search with a larger one, so a target PODEM settles within the
    first budget gets what a single full search gives.  Up to the first
    target a proof's model settles, the program is the one a single full
    search per target gives, except that faults that search aborts or
    proves untestable after the first budget may end untestable; from
    there on a model may stand where the full search would have found
    another test or aborted, and grading it may detect other targets.

    The run makes its circuit-sized state once: one {!Podem.workspace}
    for every search, one {!prover} for every proof and one
    {!Fsim.Coverage.grader} for every pattern's grade (the random phase
    keeps its own), each reset or cleared per target.  Reuse changes no
    verdict, model, backtrack count or pattern: the same variables,
    clauses, decisions and alive faults come in the same order as
    through fresh ones.

    [cancel] is polled before each deterministic target, inside each
    PODEM search (see {!Podem.generate}) and once per conflict of each
    proof; a target cut inside any of them gets no verdict.  A
    cancelled run returns a well-defined partial report whose
    unresolved targets are counted in [unknown].  The random phase always runs to completion — it is a
    pure function of the config, which is what lets a resume re-derive
    it instead of storing patterns in the checkpoint.  With
    [checkpoint], the incremental deterministic state is snapshotted
    crash-safely every [every] targets and once more at exit; a resumed
    run continues from the last snapshot and produces a report
    bit-identical to an uninterrupted one (given no time budget).  The
    resume grades the snapshot's patterns once more against every fault
    it leaves undetected, so a snapshot that lacks a detection by one
    of its own patterns still resumes to that report.
    A state saved since proofs' models are tests carries
    [("proof", "sat-model")].  An older one, with no mark or with
    [("proof", "sat")], resumes only when it counts no aborted target,
    and only if this build gives each of its extra patterns to the
    target that took it: walking the processed targets in order, the one
    whose first detection is the next extra pattern must get that
    pattern from its first PODEM search or, when that aborts, from the
    proof's model; or the proof must run out, which leaves the target to
    the full search that gave the pattern before.  The check runs no
    full search.
    Raises {!Robust.Checkpoint.Mismatch} when [resume] is set and the
    file is unreadable, was written by a run with different inputs, or
    holds a state this run cannot reach: an extra pattern that is not
    one 0/1 character per circuit input, a detection index that is
    neither -1 nor below the random plus extra pattern count, a negative
    untestable or aborted count, more verdicts (untestable, aborted and
    extra patterns together) than processed targets, or more processed
    targets than there are; or when an older state counts an aborted
    target, which a proof or its model may now settle, or holds an extra
    pattern this build would not give.  Raises [Invalid_argument] when
    [every < 1]. *)

val coverage : report -> float
(** Final fault coverage of the generated set. *)

val first_backtrack_limit : int
(** The backtrack budget of each target's first PODEM search (64). *)

type prover
(** The solver and the node maps a proof works in, made once per
    circuit and owned by one caller.  A proof clears the solver
    ({!Sat.clear}) and resets the maps only on the previous proof's
    subcircuit. *)

val prover : Circuit.Netlist.t -> prover

val prove_with :
  ?conflict_budget:int ->
  ?cancel:Robust.Cancel.t ->
  prover -> Faults.Fault.t -> Podem.result
(** [prove_with p fault] decides the fault with {!Sat} over the
    subcircuit PODEM reads: the site's fanout cone plus that cone's
    transitive fanin.  Its verdict does not depend on the proofs run
    through [p] before: the same variables and clauses come in the same
    order, so it is {!prove}'s.  The formula holds Tseitin clauses for
    the good machine over the subcircuit and for a faulty copy over the
    cone only (outside it the faulty value is the good one); a stem
    fault forces its faulty variable to the stuck value, a branch fault
    ties that pin of its gate's faulty copy to it.  Activation asks the
    faulty line's good value to be the complement of the stuck value,
    detection that some output of the cone differ between the machines,
    through one difference variable per output.  [Untestable] is a
    proof of redundancy; [Test p] is the model's input assignment (an
    input outside the subcircuit reads 0, as PODEM fills its
    don't-cares), which detects the fault and which {!run} takes as the
    target's pattern; [Aborted] means the search met [conflict_budget]
    (default 1,000) or [cancel] fired.  The [atpg.sat] trace span
    records [site], [pin] (-1 on a stem), [stuck], [vars], [clauses],
    [conflicts], [untestable] and [budget_out] (1 on [Aborted]); with
    {!Obs.Metrics} enabled the proof counts into [atpg.sat.calls],
    [atpg.sat.untestable], [atpg.sat.conflicts] and
    [atpg.sat.budget_outs].  Raises [Invalid_argument] unless the fault
    is a line of the prover's circuit or when [conflict_budget < 1]. *)

val prove :
  ?conflict_budget:int ->
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t -> Podem.result
(** [prove c fault] is {!prove_with} through a fresh {!prover} of [c]. *)
