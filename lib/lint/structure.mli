(** Structural lint rules over a netlist.

    Pure graph/valuation checks, no fault machinery: constant nets (and
    the worse case of constant primary outputs), logic that reaches no
    output, floating inputs, duplicated fanins, fanout extremes and
    reconvergence statistics.  The untestable-fault proofs are
    {!Analysis.Untestable}'s. *)

val diagnostics :
  ?fanout_threshold:int ->
  Circuit.Netlist.t -> Analysis.Ternary.t -> Diagnostic.t list
(** Run every structural rule.  [fanout_threshold] (default 16) bounds
    the [excessive-fanout] rule.  Rules emitted: [constant-net]
    (Warning), [constant-output] (Error), [dead-logic] (Warning),
    [floating-input] (Warning), [duplicate-fanin] (Warning),
    [excessive-fanout] (Warning), [fanout-stats] (Info),
    [reconvergence] (Info). *)
