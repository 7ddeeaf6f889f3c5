(** Single stuck-at faults on netlist lines.

    A fault lives on a {e line}: either the output stem of a node or a
    specific input pin of a gate (a fanout branch).  Distinguishing the
    two matters — with reconvergent fanout, a branch can be stuck while
    its stem is healthy — and it is what makes the universe size match
    the classical line count [N] that the paper's coverage fraction
    [f = m/N] refers to. *)

type site =
  | Stem of int                          (** Output of node [id]. *)
  | Branch of { gate : int; pin : int }  (** Input [pin] of node [gate]. *)

type polarity = Stuck_at_0 | Stuck_at_1

type t = { site : site; polarity : polarity }

val compare : t -> t -> int
val equal : t -> t -> bool

val polarity_bit : polarity -> bool
(** The logic value the line is stuck at. *)

val opposite : polarity -> polarity

val to_string : Circuit.Netlist.t -> t -> string
(** Human-readable form, e.g. ["G16/sa0"] or ["G22.in1/sa1"]; a node
    id outside the circuit reads as ["#id"]. *)

val check : Circuit.Netlist.t -> t -> unit
(** Raises [Invalid_argument] naming the fault unless it is a line of
    the circuit: a stem on a node id in [\[0, num_nodes)], or a branch
    on input pin [\[0, arity)] of a node that has input pins.  Every
    fault-simulation engine checks its faults with this at entry. *)

val site_node : t -> int
(** The node the fault is attached to (the gate, for a branch fault). *)
