(** Static untestability proofs for stuck-at faults: the one prover
    that lint, [lsiq analyze] and the pipeline's lint stage share.

    A stuck-at fault is {e untestable} (redundant) when no input vector
    both excites it and propagates its effect to a primary output.
    Untestable faults inflate the fault universe [N] of the paper's
    coverage fraction [f = m/N] (Eq. 4): no test set can ever reach
    [f = 1] on a universe containing them, which biases the escape
    model [(1-f)^n] (Eq. 5) and every reject-rate figure and [n0] fit
    built on it.  This module proves faults untestable {e before}
    simulation and search, so the universe can be corrected.

    Everything flagged is a {e proof}, not a heuristic:

    - {b Unexcitable}: the line is provably constant (by
      {!Ternary.analyze} on the intact circuit) at the stuck value, so
      the faulty machine is the fault-free machine.
    - {b Unobservable}: with the fault line cut ({!Ternary.analyze_with_cut}
      — every derived constant then holds regardless of the line's
      value, faulted or not), no difference can reach a primary output:
      a net can only differ between the two machines if some fanin
      differs and the net is not provably constant under the cut.
      The cut is what keeps the proof sound under reconvergent fanout —
      a constant whose derivation passes through the fault site is
      never used to block the fault's own propagation.
    - {b Equivalent}: the fault shares a {!Faults.Collapse} equivalence
      class (identical detection sets by construction) with a fault
      proved untestable above.

    With an implication closure, two stronger proofs join in:

    - {b Unexcitable} (learned): the closure proves the activation
      value infeasible on the fault-free line — backward justification
      and contrapositive learning find constants plain forward ternary
      propagation cannot.
    - {b Unobservable} (blocked dominators): some absolute dominator of
      the site has a side input held at its controlling value by a
      learned constant whose node lies {e outside} the fault's fanout
      cone.  Out-of-cone constants hold identically in the faulty
      machine, so the dominator's output never differs and no
      propagation path survives (every path crosses every dominator).

    With an {!Exact} bundle, {b Redundant}: the fault's
    Boolean-difference BDD is the constant-zero function, a complete
    proof wherever the node budget held.

    The analysis is deliberately one-sided: a [None] verdict means
    "not provably untestable", never "testable".  The test suite
    cross-checks soundness by exhaustive simulation on small
    circuits. *)

type reason = Unexcitable | Unobservable | Equivalent | Redundant

val reason_to_string : reason -> string
(** ["unexcitable"], ["unobservable"], ["equivalent"] or
    ["redundant"]. *)

type t
(** What every fault's proof shares: the intact circuit's ternary
    pass, the global observability filter and the optional inputs. *)

val prepare :
  ?implication:Implication.t -> ?dominators:Dominators.t -> ?exact:Exact.t ->
  Circuit.Netlist.t -> t
(** Once per circuit; every input must be built over the same netlist.
    The blocked-dominator proof needs both [implication] and
    [dominators].  {!Engine.build} prepares one from its passes. *)

val verdict : t -> Faults.Fault.t -> reason option
(** One fault's proof, never [Equivalent].  The structural proofs run
    first, so their more descriptive reasons win over [Redundant]. *)

val untestable :
  ?classes:Faults.Collapse.t ->
  t -> Faults.Fault.t array -> (Faults.Fault.t * reason) array
(** The flagged subset of the universe, in universe order.  With
    [classes] (equivalence classes over the {e same} universe), every
    class containing a proven-untestable fault has its remaining
    members flagged [Equivalent]. *)

val untestable_faults :
  ?classes:Faults.Collapse.t ->
  t -> Faults.Fault.t array -> Faults.Fault.t array
(** {!untestable} without the reasons — the argument
    {!Faults.Universe.exclude_untestable} expects. *)
