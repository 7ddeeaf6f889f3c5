(** One-stop bundle of the static analyses over a netlist.

    [build] runs the dominator pass always (it is a single linear
    sweep) and the implication engine when a learning depth is given,
    under one ["analysis.build"] span, and prepares the untestability
    prover over them.  Consumers — lint and the [lsiq analyze]
    command — take this bundle instead of wiring the passes
    individually. *)

type t = {
  circuit : Circuit.Netlist.t;
  dominators : Dominators.t;
  implication : Implication.t option;  (** [None] when learning was off *)
  exact : Exact.t option;              (** [None] unless an exact budget was given. *)
  untestable : Untestable.t;           (** The prover over this bundle's passes. *)
}

val build :
  ?learn_depth:int option -> ?exact_budget:int -> Circuit.Netlist.t -> t
(** [build ?learn_depth ?exact_budget c] — [learn_depth] defaults to
    [Some 1]; [None] skips the implication engine entirely (the
    dominator pass, a linear sweep, always runs).  [exact_budget]
    (absent by default, since BDDs can be exponential) additionally
    runs the {!Exact} ROBDD pass under that node budget.  The
    signal-probability and detectability passes are not part of the
    bundle: their one reader, lint's resistant-fault warnings, builds
    them itself. *)

val exact : t -> Exact.t option
val implication : t -> Implication.t option
val dominators : t -> Dominators.t
val untestable : t -> Untestable.t
