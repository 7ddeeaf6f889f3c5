(** End-to-end reproduction rig: circuit → test program → fab line →
    virtual wafer test → characterization data.

    One [execute] run is the whole Section 5/7 experiment: it
    manufactures a chip design, generates and fault-grades a production
    test program, fabricates a lot calibrated to a target yield and
    [n0], probes every chip to its first failing pattern, and reduces
    the outcomes to the (coverage, fraction failed) checkpoints that
    {!Quality.Estimate} consumes. *)

type line_model =
  | Ideal
      (** Fault counts follow the paper's Eq. 1 exactly (shifted
          Poisson, uniform fault placement) — validates the paper's
          procedure in its own terms. *)
  | Clustered
      (** The physical line: negative-binomial defect counts with
          defect→fault multiplicity and locality.  Over-dispersed
          relative to Eq. 1; the ablation experiments quantify how far
          the estimators drift on it. *)

type program_style =
  | Atpg_only
  | Functional_prelude of int
      (** Prepend an [n]-pattern low-activity random walk so cumulative
          coverage grows gradually, as the paper's functional program
          did; the ATPG set follows. *)

type config = {
  seed : int;
  scale : int;               (** {!Circuit.Generators.lsi_chip} size. *)
  lot_size : int;            (** Paper: 277 chips. *)
  target_yield : float;      (** Paper: 0.07. *)
  variance_ratio : float;    (** Stapper X of the simulated line. *)
  target_n0 : float;         (** Paper example fit: 8. *)
  atpg : Tpg.Atpg.config;
  tester_mode : Tester.Wafer_test.mode;
  line : line_model;
  program_style : program_style;
  fsim_engine : Fsim.Coverage.engine;
      (** Engine used to grade the test program (all engines give
          identical profiles; [Par { domains }] shards the grading
          across cores). *)
  exclude_untestable : bool;
      (** Run the lint subsystem's static untestability analysis and
          drop the proven-redundant faults from the working universe
          before ATPG and grading.  This corrects the denominator of
          Eq. 4 — redundant faults otherwise cap coverage below 1 and
          bias the reject-rate/[n0] fits. *)
  collapse_dominance : bool;
      (** Use the dominance-collapsed universe
          ({!Faults.Collapse.dominance}) instead of the plain
          equivalence representatives.  Shrinks the Eq. 4 denominator
          further by detection containment; composes with
          [exclude_untestable]. *)
  n_detect : int option;
      (** When [Some n], grade the test program with drop rule [n]
          ({!Fsim.Coverage.grade}): the one pass yields both the
          first-detection profile and the n-th-detection one, which
          [run.program] carries; the {!summary} then reports both
          coverage figures.  [None] (the default) grades first
          detection only. *)
}

val default_config : config
(** 277 chips, 7 % yield, n0 = 8, X = 0.25, scale-8 chip, ideal line,
    192-pattern functional prelude, PPSFP grading. *)

type run = {
  config : config;
  circuit : Circuit.Netlist.t;
  universe : Faults.Fault.t array;
      (** Collapsed representatives, minus [untestable] when
          [config.exclude_untestable] is set. *)
  untestable : Faults.Fault.t array;
      (** Statically untestable representatives excluded from
          [universe] (empty unless [config.exclude_untestable]). *)
  atpg_report : Tpg.Atpg.report;
  program : Tester.Pattern_set.t;
  defect : Fab.Defect.t;
  lot : Fab.Lot.t;
  outcome : Tester.Wafer_test.result;
}

exception Interrupted of Robust.Cancel.reason
(** Raised by {!execute} when its cancel token fires: a run that cannot
    finish has no [run] value to return.  By the time it is raised, the
    ATPG checkpoint (when configured and ATPG was reached) holds the
    last durable state. *)

val execute :
  ?cancel:Robust.Cancel.t -> ?checkpoint:Tpg.Atpg.checkpointing -> config -> run
(** [cancel] is polled at every stage boundary, after every chip of
    the lot and test stages, and inside ATPG (see {!Tpg.Atpg.run}).  [checkpoint] is handed to the ATPG stage, the
    one that costs the time: its deterministic phase is snapshotted
    every [every] fault targets, and on [resume] it continues from the
    last snapshot.  Every other stage is a deterministic function of
    the config and is simply re-executed, so a resumed run is
    bit-identical to an uninterrupted one.  Raises {!Interrupted} on
    cancellation and {!Robust.Checkpoint.Mismatch} when a resume
    checkpoint is unreadable or from different inputs.  Raises
    [Invalid_argument] naming the field, before any stage runs, unless
    [lot_size >= 1], [0 < target_yield < 1], [target_n0] is finite and
    [>= 1] and [variance_ratio] is finite and [>= 0] (NaN fails every
    check). *)

val calibrated_multiplicity : config -> lambda:float -> float
(** Faults-per-defect mean needed so [expected_n0 = target_n0] given
    the mean defect count [lambda]. *)

val true_n0 : run -> float
(** The lot's actual mean fault count on defective chips — the value
    the estimators are trying to recover. *)

val raw_coverage : run -> float
(** Final coverage over the {e uncorrected} collapsed universe —
    detected faults divided by [universe + untestable].  Equals
    [Pattern_set.final_coverage run.program] when no faults were
    excluded; strictly below it otherwise (the gap is the coverage the
    redundant faults can never contribute). *)

val true_yield : run -> float

val summary : run -> string
(** Multi-line human-readable digest of the whole run. *)
