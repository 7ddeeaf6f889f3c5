(** Ternary constant propagation with literal tracking.

    Assigns every net an abstract value: provably constant ([Const]),
    provably equal to another net up to inversion ([Lit]), or opaque
    (represented as a literal of the node itself).  Beyond plain
    0/1/X propagation, tracking literals proves the degenerate-structure
    identities — [XOR(x, x) = 0], [AND(x, NOT x) = 0], [OR(x, x) = x] —
    that real netlists acquire through careless synthesis, which is
    where most statically provable redundancy comes from.

    All proofs are implied by gate semantics plus literal sharing alone,
    so they hold for {e every} input vector; "provably constant" here
    means constant over the whole input space, not just over some test
    set. *)

type value =
  | Const of bool
  | Lit of { src : int; inv : bool }
      (** Equal to net [src] (inverted when [inv]).  A node that cannot
          be reduced is its own literal: [Lit { src = id; inv = false }].
          The cut line of {!analyze_with_cut} uses [src = -1], a fresh
          variable equal to no net. *)

type t

val analyze : Circuit.Netlist.t -> t
(** Abstract values of the intact circuit, in one topological pass. *)

val analyze_with_cut : Circuit.Netlist.t -> Faults.Fault.site -> t
(** Same propagation with one line {e freed}: the cut line is treated
    as a fresh unconstrained variable, so every constant derived is
    valid regardless of the value carried by that line — in particular
    it is valid in both the fault-free machine and any machine with a
    stuck-at fault on the cut line.  This is what makes the
    unobservability proofs in {!Untestable} sound under reconvergent
    fanout. *)

val value : t -> int -> value
(** Abstract value of node [id]'s output stem. *)

val const_value : t -> int -> bool option
(** [Some b] when the stem is provably constant. *)

val pin_value : Circuit.Netlist.t -> t -> gate:int -> pin:int -> value
(** Fault-free abstract value carried by one gate input pin (the value
    of its driver's stem). *)
