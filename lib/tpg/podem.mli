(** PODEM — path-oriented decision making (Goel, 1981).

    Deterministic test generation for a single stuck-at fault: a
    branch-and-bound search over primary-input assignments only, with
    forward implication in 5-valued logic, D-frontier tracking and an
    X-path check for early pruning.  Complete: with an unbounded
    backtrack budget, [Untestable] is a proof of redundancy. *)

type result =
  | Test of bool array
      (** Primary-input pattern (don't-cares filled with 0). *)
  | Untestable
      (** The search space is exhausted: the fault is redundant. *)
  | Aborted
      (** Backtrack limit, per-fault time budget, or the run's cancel
          token fired before a verdict. *)

type stats = { backtracks : int; implications : int }

type guidance =
  | Level_based
      (** Choose the shallowest X input — cheap, reasonable default. *)
  | Scoap_based of Scoap.t
      (** Choose by SCOAP controllability; the ablation bench measures
          the backtrack reduction this buys on resistant faults. *)

val generate :
  ?backtrack_limit:int ->
  ?time_budget_s:float ->
  ?cancel:Robust.Cancel.t ->
  ?guidance:guidance ->
  ?analysis:Analysis.Engine.t ->
  Circuit.Netlist.t -> Faults.Fault.t -> result * stats
(** [generate c fault] searches for a test.  Default backtrack limit is
    1000, default guidance {!Level_based}.  [time_budget_s] bounds this
    fault's wall-clock search time and [cancel] aborts cooperatively
    (both checked at every decision and backtrack); either yields the
    typed [Aborted] verdict, never an exception.  A time budget makes
    verdicts timing-dependent — runs that must be reproducible should
    bound the search with [backtrack_limit] alone.  Raises
    [Invalid_argument] unless [time_budget_s > 0] (so on NaN).  The returned pattern is
    guaranteed (and test-suite verified) to detect the fault under the
    fault simulator; the verdicts (test found / untestable) do not
    depend on the guidance, only the search effort does.

    Cost model.  A search reads only the fault's subcircuit: the fanout
    cone of its site plus that cone's transitive fanin.  Marking it and
    one sweep over it cost one pass over the netlist's topological
    order; each implication then re-evaluates only the subcircuit nodes
    downstream of the inputs decided, flipped or reset since the last
    one, and re-decides D-frontier membership only inside the cone.
    The observing-output test is O(1), a decision allocates only its
    record and a backtrack nothing.  The [podem.generate] trace span
    records [backtracks], [implications] and [evals], the gate
    evaluations its implications made, and with {!Obs.Metrics} enabled
    they are added to [atpg.podem.backtracks],
    [atpg.podem.implications] and [atpg.podem.gate_evals], and the call
    to [atpg.podem.calls]: a count of searches, not of targets, since
    the ATPG driver searches a target a second time when its first
    search aborts and its SAT proof does not settle it.  An input
    outside the subcircuit is never decided, so it reads 0 in the
    test.  With [analysis], learned
    consequences may name any node, so the subcircuit is the whole
    netlist.

    [analysis] (built over the {e same} netlist) adds three
    accelerations: [Untestable] with 0 backtracks and 0 implications,
    before any search, for every fault its {!Analysis.Untestable}
    prover settles; {e unique sensitization} — when the D-frontier
    shares absolute dominators, their out-of-cone side inputs are
    scheduled toward non-controlling values first; and
    learned-implication filtering of objective candidates whose
    consequences contradict the current state.  A test or untestable
    verdict never flips (verified against exhaustive simulation), but
    an abort may be proved untestable, and the changed search order
    may find another pattern and spend more or fewer backtracks. *)
