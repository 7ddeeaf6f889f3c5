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

let check (c : Circuit.Netlist.t) fault =
  let nodes = Circuit.Netlist.num_nodes c in
  let fail reason =
    invalid_arg (Printf.sprintf "malformed fault %s: %s" (to_string c fault) reason)
  in
  let node_in_range id =
    if id < 0 || id >= nodes then
      fail (Printf.sprintf "node %d outside [0, %d)" id nodes)
  in
  match fault.site with
  | Stem id -> node_in_range id
  | Branch { gate; pin } ->
    node_in_range gate;
    let arity = Array.length c.fanins.(gate) in
    if arity = 0 then fail "node has no input pins"
    else if pin < 0 || pin >= arity then
      fail (Printf.sprintf "pin %d outside [0, %d)" pin arity)

let site_node { site; _ } =
  match site with Stem id -> id | Branch { gate; _ } -> gate
