(** Enumeration of the stuck-at fault universe.

    [all] is the classical uncollapsed universe — two faults per line,
    one line per node stem plus one per gate input pin — whose size is
    [2 * Netlist.line_count].  [checkpoint] is the reduced set justified
    by the checkpoint theorem (primary inputs and fanout branches
    suffice for fanout-free-region coverage in irredundant circuits). *)

val all : Circuit.Netlist.t -> Fault.t array
(** Every line, both polarities, in dense-id order ({!Fault.id}): node
    by node, the node's stem and then its input pins in {e descending}
    pin order, sa0 before sa1 — e.g. [n151/sa0, n151/sa1,
    n151.in1/sa0, n151.in1/sa1, n151.in0/sa0, n151.in0/sa1].  The order
    fixes which member represents each equivalence class
    ({!Collapse.representatives}), and so ATPG's targets. *)

val checkpoint : Circuit.Netlist.t -> Fault.t array
(** Faults on primary-input stems and on fanout branches (input pins
    whose driver has fanout > 1), both polarities. *)

val stems_only : Circuit.Netlist.t -> Fault.t array
(** Faults on node outputs only — the coarse universe some early fault
    simulators used; kept for ablation comparisons. *)

val count : Circuit.Netlist.t -> int
(** [Array.length (all c)], without allocating the array. *)

val mark : Circuit.Netlist.t -> Fault.t array -> bool array
(** The faults as a set over the dense ids: [(mark c faults).(id)] is
    [true] iff a fault with {!Fault.id} [id] is in [faults].  Raises
    [Invalid_argument] as {!Fault.check} does for a fault that is not a
    line of the circuit. *)

val collapse_dominance : Circuit.Netlist.t -> Fault.t array -> Fault.t array
(** Equivalence then dominance collapsing in one step: the surviving
    class representatives of [Collapse.dominance] over the {e full}
    universe that lie in the given one, in [all] order.  The full
    universe and its equivalence representatives therefore give the
    same answer; re-collapsing the representatives alone would miss
    the drops whose dominated fault is not its class's
    representative.  Raises [Invalid_argument] as {!Fault.check} does
    for a fault that is not a line of the circuit.  This is the
    smallest universe the simulator needs to target for full detection
    credit on irredundant circuits; like [exclude_untestable] it
    shrinks the Eq. 4 denominator, but by provable detection
    containment rather than by untestability proofs — the two knobs
    compose. *)

val exclude_untestable :
  Circuit.Netlist.t -> Fault.t array -> untestable:Fault.t array -> Fault.t array
(** Remove the (statically proven untestable) faults from a universe of
    the circuit, preserving order; an empty [untestable] returns the
    universe itself.  Redundant faults cap measured coverage below 1
    and inflate the denominator of the paper's [f = m/N] (Eq. 4);
    excluding them yields the corrected universe that coverage,
    sampling and the reject-rate/[n0] fits should run on.  Faults in
    [untestable] absent from [universe] are ignored, so the same
    untestable set works for the full and the collapsed universe.
    Raises [Invalid_argument] as {!Fault.check} does for a fault that
    is not a line of the circuit. *)
