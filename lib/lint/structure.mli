(** Structural lint rules over a netlist.

    Pure graph/valuation checks, no fault machinery: constant nets (and
    the worse case of constant primary outputs), logic that reaches no
    output, floating inputs, duplicated fanins, fanout extremes and
    reconvergence statistics.  The untestable-fault proofs are
    {!Analysis.Untestable}'s. *)

val reachable_to_output : Circuit.Netlist.t -> bool array
(** Per node: does some primary output lie in its fanout cone?  (An
    output node is trivially reachable to itself.) *)

val reconvergent_stems : Circuit.Netlist.t -> ?budget_bits:int -> unit -> int list option
(** Fanout stems (fanout > 1) some two branches of which meet again at
    a later gate — the structures that break fanout-free-region
    arguments and make fault effects mask each other.  Computed with
    per-node stem bitsets; [None] when [nodes * stems] exceeds
    [budget_bits] (default 64M) and the analysis is skipped. *)

val diagnostics :
  ?fanout_threshold:int ->
  Circuit.Netlist.t -> Analysis.Ternary.t -> Diagnostic.t list
(** Run every structural rule.  [fanout_threshold] (default 16) bounds
    the [excessive-fanout] rule.  Rules emitted: [constant-net]
    (Warning), [constant-output] (Error), [dead-logic] (Warning),
    [floating-input] (Warning), [duplicate-fanin] (Warning),
    [excessive-fanout] (Warning), [fanout-stats] (Info),
    [reconvergence] (Info). *)
