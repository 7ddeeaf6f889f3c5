(** Static implication graph with SOCRATES-style contrapositive
    learning.

    For every line literal (a node assigned 0 or 1) the engine runs a
    full three-valued {e bidirectional} implication — forward gate
    evaluation plus backward justification, the same closure the
    implication ATPG uses, here on the fault-free circuit — and treats
    every derived assignment as a static implication [a ⇒ b].  Each
    implication is then learned in contrapositive form [¬b ⇒ ¬a] and
    added to the graph, and the whole sweep repeats with the learned
    edges participating, up to a configurable depth or until a sweep
    learns nothing new (a fixpoint: on acyclic netlists the literal
    universe is finite and edges are only ever added, so termination
    is structural).

    A literal whose closure is {e contradictory} (implies both values
    of some line) can never hold: its line is provably constant at the
    opposite value.  These learned constants join the base state of
    later sweeps, so learning is monotone — exactly the
    unexcitability evidence {!Untestable} consumes, and strictly
    stronger than plain ternary constant propagation because backward
    justification and learned edges participate. *)

type t

val learn : ?depth:int -> Circuit.Netlist.t -> t
(** Build the implication graph with at most [depth] (default 1)
    learning sweeps after the initial direct sweep; stops early at the
    fixpoint.  Instrumented as the ["analysis.implications"] span.
    Raises [Invalid_argument] when [depth < 0]. *)

val circuit : t -> Circuit.Netlist.t

val consequences : t -> int -> bool -> (int * bool) list option
(** [consequences t node v]: every assignment implied by setting
    [node]'s stem to [v] (seed and base constants excluded), in node
    order, or [None] when the assignment is contradictory.  Runs the
    closure on demand over the learned graph. *)

val implies : t -> int * bool -> int * bool -> bool
(** [implies t (a, va) (b, vb)] — does [a = va] force [b = vb]?  A
    contradictory antecedent implies everything. *)

val infeasible : t -> int -> bool -> bool
(** The line provably never carries this value. *)

val constant : t -> int -> bool option
(** Constant value of a stem, when one polarity is infeasible.  Subsumes
    ternary constant propagation on the same netlist. *)

val constants : t -> (int * bool) list
(** All lines proved constant, in node order. *)

val contradictory : t -> int list
(** Nodes with {e both} polarities proved infeasible.  Always empty on
    a well-formed combinational netlist — a non-empty result means the
    engine itself is unsound and is surfaced as an error by
    [lsiq analyze]. *)

val direct_count : t -> int
(** Total implications found by the final sweep (sum of closure sizes
    over all feasible literals). *)

val learned_count : t -> int
(** Contrapositive edges added over all sweeps (deduplicated). *)

val rounds : t -> int
(** Learning sweeps actually executed (≤ [depth], fewer when the
    fixpoint arrives early). *)
