(** Gate-level netlist: an immutable DAG of {!Gate.kind} nodes.

    Nodes are dense integer ids.  A netlist is constructed through the
    {!Builder} sub-module, which checks arities and that every fanin
    already exists — so ids are topological and no cycle can form — and
    precomputes fanouts, a topological order, logic levels and the line
    offsets behind the dense fault ids.  All simulators and the fault
    machinery work off this one representation. *)

type t = private {
  name : string;
  kinds : Gate.kind array;        (** Gate type of each node. *)
  fanins : int array array;       (** Fanin node ids, in pin order. *)
  fanouts : int array array;      (** Fanout node ids (derived). *)
  node_names : string array;      (** Human-readable signal names. *)
  inputs : int array;             (** Primary-input node ids, in order. *)
  outputs : int array;            (** Primary-output node ids, in order. *)
  output_flags : bool array;      (** [output_flags.(id)] iff [id] is an output. *)
  topo_order : int array;         (** Every node, fanins before fanouts. *)
  levels : int array;             (** Logic level (inputs at 0). *)
  line_offsets : int array;
      (** [line_offsets.(id)] is the number of lines (one stem per node
          plus one per input pin) on the nodes before [id]: a prefix sum
          of [1 + arity] with [num_nodes + 1] entries. *)
}

exception Cycle of string
(** Raised by [Bench_format.parse_string] when the gate graph of a
    netlist text is cyclic; the payload spells out a full loop in
    signal-flow order, e.g. ["a -> b -> c -> a"]. *)

module Builder : sig
  type netlist := t
  type t

  val create : name:string -> t

  val add_input : t -> string -> int
  (** Declare a primary input; returns its node id. *)

  val add_const : t -> string -> bool -> int
  (** Constant-0 or constant-1 node. *)

  val add_gate : t -> ?name:string -> Gate.kind -> int list -> int
  (** [add_gate b kind fanins] adds a logic node.  Checks the arity and
      that fanin ids exist.  An omitted [name] is generated. *)

  val mark_output : t -> int -> unit
  (** Flag a node as a primary output (a node may feed both logic and an
      output pin; marking is idempotent). *)

  val build : t -> netlist
  (** Freeze the builder: computes fanouts, the topological order, the
      levels and [line_offsets].  Never raises: [add_gate] has already
      rejected every fanin that does not exist. *)
end

val num_nodes : t -> int
val num_inputs : t -> int
val num_outputs : t -> int

val num_gates : t -> int
(** Logic nodes only (inputs and constants excluded). *)

val depth : t -> int
(** Maximum logic level. *)

val gate_census : t -> (Gate.kind * int) list
(** Count of nodes per gate kind, kinds with zero count omitted. *)

val find_node : t -> string -> int option
(** Look a node up by name. *)

val is_output : t -> int -> bool
(** O(1): a lookup in [output_flags]. *)

val line_count : t -> int
(** Total number of circuit lines: one output stem per node plus every
    gate input pin.  This is the classical site count [N] for the
    stuck-at fault universe (before collapsing).  O(1): the last entry
    of [line_offsets]. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, #inputs, #outputs, #gates, depth. *)
