(** Netlist-to-ROBDD compilation and per-fault Boolean differences.

    [build] evaluates a {!Circuit.Netlist.t} symbolically, one
    {!Robdd.node} per netlist stem, in topological order.  Primary
    inputs map to BDD levels through a {e variable order}: position
    [order.(l)] is the primary-input index placed at level [l].  The
    default is {!dfs_order} — a depth-first walk from the primary
    outputs, which keeps cone-sharing inputs adjacent and is the
    classic cheap static order; {!sift_order} optionally improves it
    by sifting (here implemented as sifting-by-rebuild: each variable
    is tried at every position and the placement minimizing the shared
    output size is kept — quadratic in inputs, intended for small
    circuits, not the hot path).

    Fault machinery: {!detection_function} returns the Boolean
    difference [D_f = OR over outputs o of (good_o XOR faulty_o)],
    where the faulty machine re-evaluates only the fault site's fanout
    cone (a [Stem] fault overrides the node's function with a
    constant; a [Branch] fault re-evaluates just that gate with the
    faulted pin tied off, leaving sibling branches healthy).  By
    canonicity, [D_f = Robdd.zero] iff no input vector detects the
    fault — an exact untestability proof — and
    [Robdd.probability D_f] is the exact per-pattern detection
    probability under uniform random patterns.

    Everything here raises {!Robdd.Exceeded} when the manager's node
    budget runs out; the partially built state remains valid. *)

type t = {
  man : Robdd.t;
  circuit : Circuit.Netlist.t;
  order : int array;         (** [order.(level)] = primary-input position. *)
  level_of_pos : int array;  (** Inverse of [order]. *)
  stems : Robdd.node array;  (** Good-machine function of each node id. *)
}

val dfs_order : Circuit.Netlist.t -> int array
(** Depth-first from the primary outputs (in output order, fanins
    visited in pin order); inputs unreachable from any output are
    appended in declaration order.  A permutation of
    [0 .. num_inputs-1]. *)

val sift_order : ?budget:int -> Circuit.Netlist.t -> int array -> int array
(** One sifting pass over [init]: for each variable in turn, try every
    position in the current best order (rebuilding the circuit BDDs
    under the candidate order) and keep the cheapest by shared output
    node count.  Orders whose build exceeds [budget] are treated as
    infinitely bad, so the result never builds worse than [init] when
    [init] itself fits.  Returns [init] unchanged (copied) for
    circuits with more than 24 inputs — quadratic rebuilds are an
    opt-in refinement, not a production ordering engine. *)

val eval_netlist :
  Robdd.t -> Circuit.Netlist.t -> level_of_pos:int array -> Robdd.node array
(** Evaluate every stem of the netlist in an existing manager, the
    primary input at position [p] becoming the variable at
    [level_of_pos.(p)].  Building block for {!build} and for
    {!Equiv.check}'s shared-manager comparison.  May raise
    {!Robdd.Exceeded}. *)

val build : ?budget:int -> ?order:int array -> Circuit.Netlist.t -> t
(** Symbolic evaluation of every stem under [order] (default
    {!dfs_order}).  Raises {!Robdd.Exceeded} past the node budget and
    [Invalid_argument] if [order] is not a permutation of the input
    positions. *)

val output_nodes : t -> Robdd.node array
(** Per primary output, in output order. *)

val total_nodes : t -> int
(** Shared node count of the primary-output functions. *)

val detection_function : t -> Faults.Fault.t -> Robdd.node
(** The Boolean difference [D_f] described above.  May raise
    {!Robdd.Exceeded}. *)

val pattern_of_sat : t -> (int * bool) list -> bool array
(** Expand a satisfying path ({!Robdd.any_sat}) into a full input
    pattern in primary-input position order; don't-care positions
    default to 0. *)
