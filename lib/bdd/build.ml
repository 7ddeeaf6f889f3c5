module Netlist = Circuit.Netlist
module Gate = Circuit.Gate

type t = {
  man : Robdd.t;
  circuit : Netlist.t;
  order : int array;
  level_of_pos : int array;
  stems : Robdd.node array;
}

(* Primary-input position of each node id, -1 on non-inputs. *)
let input_positions (c : Netlist.t) =
  let pos = Array.make (Netlist.num_nodes c) (-1) in
  Array.iteri (fun p id -> pos.(id) <- p) c.inputs;
  pos

let dfs_order (c : Netlist.t) =
  let pos = input_positions c in
  let visited = Array.make (Netlist.num_nodes c) false in
  let acc = ref [] in
  let rec visit id =
    if not visited.(id) then begin
      visited.(id) <- true;
      Array.iter visit c.fanins.(id);
      if pos.(id) >= 0 then acc := pos.(id) :: !acc
    end
  in
  Array.iter visit c.outputs;
  Array.iter (fun id -> if not visited.(id) then acc := pos.(id) :: !acc) c.inputs;
  Array.of_list (List.rev !acc)

let check_order (c : Netlist.t) order =
  let k = Netlist.num_inputs c in
  if Array.length order <> k then
    invalid_arg "Bdd.Build: order length mismatch";
  let seen = Array.make k false in
  Array.iter
    (fun p ->
      if p < 0 || p >= k || seen.(p) then
        invalid_arg "Bdd.Build: order is not a permutation";
      seen.(p) <- true)
    order

let eval_gate man kind (fns : Robdd.node array) =
  let fold f init = Array.fold_left (f man) init fns in
  match (kind : Gate.kind) with
  | Input -> invalid_arg "Bdd.Build: Input has no logic function"
  | Const0 -> Robdd.zero
  | Const1 -> Robdd.one
  | Buf -> fns.(0)
  | Not -> Robdd.not_ man fns.(0)
  | And -> fold Robdd.and_ Robdd.one
  | Nand -> Robdd.not_ man (fold Robdd.and_ Robdd.one)
  | Or -> fold Robdd.or_ Robdd.zero
  | Nor -> Robdd.not_ man (fold Robdd.or_ Robdd.zero)
  | Xor -> fold Robdd.xor Robdd.zero
  | Xnor -> Robdd.not_ man (fold Robdd.xor Robdd.zero)

(* Shared with Equiv: evaluate every stem of [c] in [man], primary
   input at position [p] becoming the variable at [level_of_pos.(p)]. *)
let eval_netlist man (c : Netlist.t) ~level_of_pos =
  let pos = input_positions c in
  let stems = Array.make (Netlist.num_nodes c) Robdd.zero in
  Array.iter
    (fun id ->
      stems.(id) <-
        (match c.kinds.(id) with
        | Gate.Input -> Robdd.var man level_of_pos.(pos.(id))
        | k -> eval_gate man k (Array.map (fun s -> stems.(s)) c.fanins.(id))))
    c.topo_order;
  stems

let build ?(budget = Robdd.default_budget) ?order (c : Netlist.t) =
  let order = match order with Some o -> o | None -> dfs_order c in
  check_order c order;
  let k = Netlist.num_inputs c in
  let level_of_pos = Array.make k 0 in
  Array.iteri (fun lvl p -> level_of_pos.(p) <- lvl) order;
  let man = Robdd.create ~budget ~num_vars:k () in
  let stems = eval_netlist man c ~level_of_pos in
  { man; circuit = c; order; level_of_pos; stems }

let output_nodes t = Array.map (fun o -> t.stems.(o)) t.circuit.Netlist.outputs

let total_nodes t =
  Robdd.shared_count t.man (Array.to_list (output_nodes t))

let sift_order ?(budget = Robdd.default_budget) (c : Netlist.t) init =
  check_order c init;
  let k = Array.length init in
  if k > 24 then Array.copy init
  else begin
    let cost order =
      match build ~budget ~order c with
      | b -> total_nodes b
      | exception Robdd.Exceeded -> max_int
    in
    let move order from_ to_ =
      let o = Array.to_list (Array.copy order) in
      let v = List.nth o from_ in
      let rest = List.filteri (fun i _ -> i <> from_) o in
      let rec insert i = function
        | l when i = to_ -> v :: l
        | [] -> [ v ]
        | x :: l -> x :: insert (i + 1) l
      in
      Array.of_list (insert 0 rest)
    in
    let best = ref (Array.copy init) in
    let best_cost = ref (cost !best) in
    Array.iter
      (fun p ->
        (* Current index of variable [p] in the best order so far. *)
        let from_ = ref 0 in
        Array.iteri (fun i q -> if q = p then from_ := i) !best;
        for to_ = 0 to k - 1 do
          if to_ <> !from_ then begin
            let candidate = move !best !from_ to_ in
            let c' = cost candidate in
            if c' < !best_cost then begin
              best := candidate;
              best_cost := c';
              from_ := to_
            end
          end
        done)
      init;
    !best
  end

let fault_value polarity =
  if Faults.Fault.polarity_bit polarity then Robdd.one else Robdd.zero

let detection_function t (fault : Faults.Fault.t) =
  let c = t.circuit in
  let n = Netlist.num_nodes c in
  let faulty = Array.copy t.stems in
  (* Override the fault site, then re-evaluate only its fanout cone. *)
  let start =
    match fault.site with
    | Faults.Fault.Stem s ->
      faulty.(s) <- fault_value fault.polarity;
      s
    | Faults.Fault.Branch { gate; pin } ->
      let fns =
        Array.mapi
          (fun i src ->
            if i = pin then fault_value fault.polarity else t.stems.(src))
          c.fanins.(gate)
      in
      faulty.(gate) <- eval_gate t.man c.kinds.(gate) fns;
      gate
  in
  let in_cone = Array.make n false in
  in_cone.(start) <- true;
  Array.iter
    (fun id ->
      if
        id <> start
        && Array.exists (fun s -> in_cone.(s)) c.fanins.(id)
      then begin
        in_cone.(id) <- true;
        faulty.(id) <-
          eval_gate t.man c.kinds.(id)
            (Array.map (fun s -> faulty.(s)) c.fanins.(id))
      end)
    c.topo_order;
  Array.fold_left
    (fun acc o ->
      if in_cone.(o) then
        Robdd.or_ t.man acc (Robdd.xor t.man t.stems.(o) faulty.(o))
      else acc)
    Robdd.zero c.outputs
