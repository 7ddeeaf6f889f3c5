type t = {
  name : string;
  kinds : Gate.kind array;
  fanins : int array array;
  fanouts : int array array;
  node_names : string array;
  inputs : int array;
  outputs : int array;
  output_flags : bool array;
  topo_order : int array;
  levels : int array;
}

exception Cycle of string

module Builder = struct
  type netlist = t [@@warning "-34"]

  type t = {
    circuit_name : string;
    mutable kinds : Gate.kind list;       (* reversed *)
    mutable fanin_lists : int list list;  (* reversed *)
    mutable names : string list;          (* reversed *)
    mutable next_id : int;
    mutable input_ids : int list;         (* reversed *)
    mutable output_ids : int list;        (* reversed *)
    mutable output_set : (int, unit) Hashtbl.t;
  }

  let create ~name =
    { circuit_name = name; kinds = []; fanin_lists = []; names = [];
      next_id = 0; input_ids = []; output_ids = [];
      output_set = Hashtbl.create 16 }

  let add_node b kind fanins name =
    List.iter
      (fun src ->
        if src < 0 || src >= b.next_id then
          invalid_arg
            (Printf.sprintf "Netlist.Builder: fanin %d of %s does not exist" src name))
      fanins;
    let arity = List.length fanins in
    if arity < Gate.min_arity kind then
      invalid_arg
        (Printf.sprintf "Netlist.Builder: %s needs >= %d fanins, got %d"
           (Gate.to_string kind) (Gate.min_arity kind) arity);
    (match Gate.max_arity kind with
    | Some m when arity > m ->
      invalid_arg
        (Printf.sprintf "Netlist.Builder: %s allows <= %d fanins, got %d"
           (Gate.to_string kind) m arity)
    | Some _ | None -> ());
    let id = b.next_id in
    b.next_id <- id + 1;
    b.kinds <- kind :: b.kinds;
    b.fanin_lists <- fanins :: b.fanin_lists;
    b.names <- name :: b.names;
    id

  let add_input b name =
    let id = add_node b Gate.Input [] name in
    b.input_ids <- id :: b.input_ids;
    id

  let add_const b name value =
    add_node b (if value then Gate.Const1 else Gate.Const0) [] name

  let add_gate b ?name kind fanins =
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "n%d" b.next_id
    in
    add_node b kind fanins name

  let mark_output b id =
    if id < 0 || id >= b.next_id then
      invalid_arg "Netlist.Builder.mark_output: no such node";
    if not (Hashtbl.mem b.output_set id) then begin
      Hashtbl.add b.output_set id ();
      b.output_ids <- id :: b.output_ids
    end

  let build b =
    let n = b.next_id in
    let kinds = Array.of_list (List.rev b.kinds) in
    (* [fanin_lists] is most-recent-first; rev_map restores id order. *)
    let fanins = Array.of_list (List.rev_map Array.of_list b.fanin_lists) in
    let node_names = Array.of_list (List.rev b.names) in
    let inputs = Array.of_list (List.rev b.input_ids) in
    let outputs = Array.of_list (List.rev b.output_ids) in
    (* Fanouts. *)
    let fanout_counts = Array.make n 0 in
    Array.iter
      (Array.iter (fun src -> fanout_counts.(src) <- fanout_counts.(src) + 1))
      fanins;
    let fanouts = Array.map (fun c -> Array.make c (-1)) fanout_counts in
    let cursor = Array.make n 0 in
    Array.iteri
      (fun dst srcs ->
        Array.iter
          (fun src ->
            fanouts.(src).(cursor.(src)) <- dst;
            cursor.(src) <- cursor.(src) + 1)
          srcs)
      fanins;
    (* Kahn topological sort; ids are already fanin-before-fanout for
       builder-constructed circuits, but parsed netlists may not be. *)
    let indegree = Array.map Array.length fanins in
    let queue = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
    let topo = Array.make n (-1) in
    let filled = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      topo.(!filled) <- u;
      incr filled;
      Array.iter
        (fun v ->
          indegree.(v) <- indegree.(v) - 1;
          if indegree.(v) = 0 then Queue.add v queue)
        fanouts.(u)
    done;
    if !filled <> n then begin
      (* Nodes with positive residual indegree still have an unsorted
         fanin, so following such fanins from any of them must loop.
         Walk until a node repeats and report the whole cycle in signal
         flow order, not just one node on it. *)
      let remaining i = indegree.(i) > 0 in
      let start =
        let found = ref (-1) in
        Array.iteri (fun i d -> if d > 0 && !found < 0 then found := i) indegree;
        !found
      in
      let visited_at = Hashtbl.create 16 in
      let trail = ref [] in
      let rec walk node steps =
        match Hashtbl.find_opt visited_at node with
        | Some _ ->
          (* Keep the trail back to the first visit of [node]: that
             suffix, reversed, is the cycle in fanin->fanout order. *)
          let cycle = ref [] in
          (try
             List.iter
               (fun v ->
                 cycle := v :: !cycle;
                 if v = node then raise Exit)
               !trail
           with Exit -> ());
          !cycle @ [ node ]
        | None ->
          Hashtbl.add visited_at node steps;
          trail := node :: !trail;
          let next =
            Array.fold_left
              (fun acc src -> if acc >= 0 || not (remaining src) then acc else src)
              (-1) fanins.(node)
          in
          walk next (steps + 1)
      in
      let path = walk start 0 in
      raise
        (Cycle (String.concat " -> " (List.map (fun i -> node_names.(i)) path)))
    end;
    let levels = Array.make n 0 in
    Array.iter
      (fun u ->
        let lvl =
          Array.fold_left (fun acc src -> max acc (levels.(src) + 1)) 0 fanins.(u)
        in
        levels.(u) <- if Array.length fanins.(u) = 0 then 0 else lvl)
      topo;
    let output_flags = Array.make n false in
    Array.iter (fun id -> output_flags.(id) <- true) outputs;
    { name = b.circuit_name; kinds; fanins; fanouts; node_names; inputs;
      outputs; output_flags; topo_order = topo; levels }
end

let num_nodes t = Array.length t.kinds
let num_inputs t = Array.length t.inputs
let num_outputs t = Array.length t.outputs

let num_gates t =
  Array.fold_left
    (fun acc kind ->
      match kind with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> acc
      | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor -> acc + 1)
    0 t.kinds

let depth t = Array.fold_left max 0 t.levels

let gate_census t =
  let add assoc kind =
    match List.assoc_opt kind assoc with
    | Some c -> (kind, c + 1) :: List.remove_assoc kind assoc
    | None -> (kind, 1) :: assoc
  in
  Array.fold_left add [] t.kinds |> List.sort compare

let find_node t name =
  let n = Array.length t.node_names in
  let rec loop i =
    if i >= n then None
    else if String.equal t.node_names.(i) name then Some i
    else loop (i + 1)
  in
  loop 0

let is_output t id = t.output_flags.(id)

(* One stem per node plus one line per gate input pin. *)
let line_count t =
  Array.fold_left (fun acc fanins -> acc + 1 + Array.length fanins) 0 t.fanins

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d inputs, %d outputs, %d gates, depth %d"
    t.name (num_inputs t) (num_outputs t) (num_gates t) (depth t)
