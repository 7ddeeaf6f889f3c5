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

val is_line : Circuit.Netlist.t -> t -> bool
(** Whether {!check} accepts the fault. *)

(** {2 Dense ids}

    Every fault on a line of a circuit has an integer id in
    [\[0, Universe.count c)]: its position in {!Universe.all}.  The
    layout walks the nodes in id order and gives each node its stem,
    then its input pins in descending pin order, sa0 before sa1; it is
    computed in O(1) from [Netlist.line_offsets].  Tables over faults
    are arrays indexed by this id. *)

val id : Circuit.Netlist.t -> t -> int
(** The fault's dense id.  Raises [Invalid_argument] as {!check} does
    for a fault that is not a line of the circuit. *)

val stem_id : Circuit.Netlist.t -> int -> polarity -> int
(** [id] of the stem fault on a node, for a node id the caller knows to
    be in the circuit: no check and no record. *)

val branch_id : Circuit.Netlist.t -> gate:int -> pin:int -> polarity -> int
(** [id] of the branch fault on an input pin the caller knows to exist:
    no check and no record. *)

val site_node : t -> int
(** The node the fault is attached to (the gate, for a branch fault). *)
