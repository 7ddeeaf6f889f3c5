type site = Stem of int | Branch of { gate : int; pin : int }

type polarity = Stuck_at_0 | Stuck_at_1

type t = { site : site; polarity : polarity }

let compare = Stdlib.compare

let equal a b = compare a b = 0

let polarity_bit = function Stuck_at_0 -> false | Stuck_at_1 -> true

let opposite = function Stuck_at_0 -> Stuck_at_1 | Stuck_at_1 -> Stuck_at_0

let polarity_string = function Stuck_at_0 -> "sa0" | Stuck_at_1 -> "sa1"

(* A node id outside the circuit is named by its number. *)
let node_name (c : Circuit.Netlist.t) id =
  if id >= 0 && id < Array.length c.node_names then c.node_names.(id)
  else Printf.sprintf "#%d" id

let to_string c { site; polarity } =
  match site with
  | Stem id -> Printf.sprintf "%s/%s" (node_name c id) (polarity_string polarity)
  | Branch { gate; pin } ->
    Printf.sprintf "%s.in%d/%s" (node_name c gate) pin (polarity_string polarity)

let site_node { site; _ } =
  match site with Stem id -> id | Branch { gate; _ } -> gate

(* Why [fault] is not a line of [c], or [None] when it is one. *)
let defect (c : Circuit.Netlist.t) fault =
  let nodes = Circuit.Netlist.num_nodes c in
  let node = site_node fault in
  if node < 0 || node >= nodes then
    Some (Printf.sprintf "node %d outside [0, %d)" node nodes)
  else
    match fault.site with
    | Stem _ -> None
    | Branch { pin; _ } ->
      let arity = Array.length c.fanins.(node) in
      if arity = 0 then Some "node has no input pins"
      else if pin < 0 || pin >= arity then
        Some (Printf.sprintf "pin %d outside [0, %d)" pin arity)
      else None

let is_line c fault = Option.is_none (defect c fault)

let check c fault =
  match defect c fault with
  | None -> ()
  | Some reason ->
    invalid_arg (Printf.sprintf "malformed fault %s: %s" (to_string c fault) reason)

(* The layout of [Universe.all]: node by node, the stem and then the
   input pins in descending pin order, sa0 before sa1.  The node's
   lines start at [line_offsets.(node)], so its last pin sits just
   before the next node's stem. *)
let polarity_index = function Stuck_at_0 -> 0 | Stuck_at_1 -> 1

let stem_id (c : Circuit.Netlist.t) node polarity =
  (2 * c.line_offsets.(node)) + polarity_index polarity

let branch_id (c : Circuit.Netlist.t) ~gate ~pin polarity =
  (2 * (c.line_offsets.(gate + 1) - 1 - pin)) + polarity_index polarity

let id c fault =
  check c fault;
  match fault.site with
  | Stem node -> stem_id c node fault.polarity
  | Branch { gate; pin } -> branch_id c ~gate ~pin fault.polarity
