(** Lint driver: run every rule family over a netlist and package the
    findings for the CLI, the test suite and the experiment pipeline.

    Cyclic netlists never reach this layer — {!Circuit.Netlist.Builder}
    cannot build one, and the .bench parser rejects them, reporting the
    full loop path through {!Circuit.Netlist.Cycle}. *)

type config = {
  fanout_threshold : int;   (** [excessive-fanout] bound (default 16). *)
  testability : bool;
      (** Run the {!Analysis.Untestable} proofs, expanded through
          {!Faults.Collapse} equivalence classes, and the [hard-fault]
          (SCOAP difficulty >= 100, at most 10) and [resistant-fault]
          (detection probability < 0.01 per uniform pattern, at most
          10) warnings (default true). *)
  learn_depth : int option;
      (** When [Some d], build the static analysis engine (dominators +
          implication learning at depth [d]) and enable the
          learned-implication and blocked-dominator untestability
          proofs.  Default [None]: the quadratic-ish learning sweep is
          opt-in ([lsiq lint --learn-depth], or the analyze command). *)
  exact_budget : int option;
      (** When [Some budget], run the {!Analysis.Exact} ROBDD pass
          under that node budget: complete redundancy identification
          (reason [Redundant]) wherever the budget holds, plus a
          [bdd-budget] warning when it does not.  Default [None] —
          BDDs can be exponential, so exactness is opt-in
          ([lsiq lint --exact]). *)
}

val default_config : config

type report = {
  circuit : Circuit.Netlist.t;
  diagnostics : Diagnostic.t list;  (** Sorted: severity, rule, node. *)
  untestable : (Faults.Fault.t * Analysis.Untestable.reason) array;
      (** Statically proven untestable faults of {!Faults.Universe.all},
          in universe order. *)
  universe_size : int;              (** [|Universe.all|] for context. *)
  errors : int;
  warnings : int;
  infos : int;
}

val run : ?config:config -> Circuit.Netlist.t -> report

val untestable_faults : report -> Faults.Fault.t array
(** The proven-untestable faults alone — ready for
    {!Faults.Universe.exclude_untestable}. *)

val render_text : report -> string
(** Human-readable report: circuit summary, findings table, totals. *)

val render_json : report -> Report.Json.t
(** Machine-readable report with the same content plus fault details. *)

val worst_severity : report -> Diagnostic.severity option
(** Most urgent severity present, [None] for a clean report. *)
