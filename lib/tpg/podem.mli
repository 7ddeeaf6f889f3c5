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

    [analysis] (built over the {e same} netlist) adds three
    accelerations: sound pre-search [Untestable] verdicts for
    structurally unobservable sites and infeasible activation values;
    {e unique sensitization} — when the D-frontier shares absolute
    dominators, their out-of-cone side inputs are scheduled toward
    non-controlling values first; and learned-implication filtering of
    objective candidates whose consequences contradict the current
    state.  All three only reorder or shortcut the search — the
    verdict for any fault is unchanged (verified against exhaustive
    simulation), and the backtrack count can only shrink on faults
    where the heuristics bite. *)
