(** Exact redundancy identification and exact detection probabilities
    via per-fault Boolean-difference ROBDDs ({!Bdd}).

    Where {!Signal_prob}/{!Detectability} propagate sound {e interval}
    bounds, this pass computes the truth — wherever the configured
    node budget holds.  For every fault in the universe it builds the
    Boolean difference [D_f = OR_o (good_o XOR faulty_o)]; by BDD
    canonicity [D_f] is the constant-zero node iff the fault is
    untestable (no detecting vector exists), and weighted path
    counting gives the {e exact} per-pattern detection probability
    under uniform random patterns — bit-for-bit equal to exhaustive
    enumeration for circuits of up to 53 inputs (all intermediate
    values are dyadic rationals that an IEEE double represents
    exactly).

    Budget exhaustion is a per-fault event, not a global failure: a
    fault whose difference BDD blows the budget gets verdict
    {!Unknown} and downstream consumers fall back to the interval
    analyses for that fault alone ({!coverage_band}).  This is why
    intervals remain in the codebase: they are the always-available
    sound fallback; the BDD pass is the sharpener.

    Runs under ["analysis.bdd.build"] / ["analysis.bdd.redundancy"]
    spans and records [analysis.bdd.nodes],
    [analysis.bdd.cache_lookups] / [cache_hits] / [cache_hit_rate] and
    [analysis.bdd.budget_fallbacks] metrics. *)

type verdict =
  | Testable of float
      (** A test exists; the payload is the exact probability that one
          uniform random pattern detects the fault (always > 0). *)
  | Untestable  (** Proved redundant: no detecting vector exists. *)
  | Unknown     (** Node budget exceeded for this fault. *)

type t

val default_budget : int
(** {!Bdd.Robdd.default_budget}. *)

val analyze : ?budget:int -> Circuit.Netlist.t -> t
(** Classify the full stuck-at universe ({!Faults.Universe.all}) under
    the DFS variable order ({!Bdd.Build.dfs_order}).  Never raises on
    budget exhaustion; affected faults come back {!Unknown}. *)

val circuit : t -> Circuit.Netlist.t
val node_budget : t -> int

val built : t -> bool
(** Did the good-machine BDDs fit in budget?  When [false], every
    verdict is {!Unknown} and {!signal_probability} is [None]. *)

val universe_size : t -> int
val unknown_count : t -> int

val complete : t -> bool
(** No {!Unknown} verdicts: the whole universe is exactly classified. *)

val verdict : t -> Faults.Fault.t -> verdict
(** O(1), by the fault's dense id ({!Faults.Fault.id}); {!Unknown} for
    a fault that is not a line of the circuit. *)

val untestable : t -> Faults.Fault.t array -> Faults.Fault.t list
(** The provably redundant subset, in the given order. *)

val signal_probability : t -> int -> float option
(** Exact probability that node [id]'s stem is 1 under a uniform
    random pattern, [None] when the good machine did not fit. *)

val detection : t -> Faults.Fault.t -> Signal_prob.interval option
(** The exact detection probability as a point interval, [None] on
    {!Unknown}. *)

val node_count : t -> int
(** Total nodes allocated in the manager (shared across the good
    machine and every per-fault difference). *)

val cache_hit_rate : t -> float
(** ITE computed-table hit rate over the whole analysis. *)

(** {2 Band refinement}

    Drop-in sharpenings of the {!Detectability} predictions: each
    fault uses its exact point probability where the verdict is known
    and the interval bound where it is {!Unknown}.  The result is
    always contained in the corresponding interval band, and equals it
    when nothing was classified. *)

val coverage_band :
  t -> Detectability.t -> Faults.Fault.t array -> patterns:int ->
  Signal_prob.interval

val predicted_curve :
  t -> Detectability.t -> Faults.Fault.t array -> counts:int array ->
  (int * Signal_prob.interval) array
