type t = {
  circuit : Circuit.Netlist.t;
  universe : Fault.t array;
  class_by_id : int array;   (* fault id -> class, -1 outside the universe *)
  reps : Fault.t array;      (* class -> representative *)
  member_start : int array;  (* class -> first slot in [members]; one extra *)
  members : int array;       (* universe positions, grouped by class *)
}

(* Union-find with path compression.  A root is linked under the
   smaller one, so every parent is at most its child and the root of a
   set is its smallest member. *)
let find parent i =
  let rec chase i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- parent.(parent.(i));
      chase parent.(i)
    end
  in
  chase i

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

let equivalence (c : Circuit.Netlist.t) universe =
  let size = Array.length universe in
  let parent = Array.init size Fun.id in
  (* Universe position of each fault id ([Universe.count c] of them),
     -1 when the universe leaves the fault out.  A repeated fault joins
     the class of its first copy. *)
  let position = Array.make (2 * Circuit.Netlist.line_count c) (-1) in
  Array.iteri
    (fun i fault ->
      let id = Fault.id c fault in
      if position.(id) < 0 then position.(id) <- i
      else union parent position.(id) i)
    universe;
  let merge a b =
    let pa = position.(a) and pb = position.(b) in
    (* A reduced universe (e.g. checkpoint) may omit one side; the rule
       then simply does not apply. *)
    if pa >= 0 && pb >= 0 then union parent pa pb
  in
  let n = Circuit.Netlist.num_nodes c in
  for gate = 0 to n - 1 do
    let fanins = c.fanins.(gate) in
    (* Branch = stem of a fanout-1 driver.  The driver must not itself
       be a primary output: a stem fault on a PO is directly observable
       while the branch fault is not, so they are not equivalent. *)
    Array.iteri
      (fun pin src ->
        if Array.length c.fanouts.(src) = 1 && not (Circuit.Netlist.is_output c src)
        then begin
          merge
            (Fault.branch_id c ~gate ~pin Fault.Stuck_at_0)
            (Fault.stem_id c src Fault.Stuck_at_0);
          merge
            (Fault.branch_id c ~gate ~pin Fault.Stuck_at_1)
            (Fault.stem_id c src Fault.Stuck_at_1)
        end)
      fanins;
    (* Gate-local controlling-value equivalences. *)
    let merge_all_pins input_polarity output_polarity =
      let output = Fault.stem_id c gate output_polarity in
      Array.iteri
        (fun pin _src -> merge (Fault.branch_id c ~gate ~pin input_polarity) output)
        fanins
    in
    (match c.kinds.(gate) with
    | Circuit.Gate.And -> merge_all_pins Fault.Stuck_at_0 Fault.Stuck_at_0
    | Circuit.Gate.Nand -> merge_all_pins Fault.Stuck_at_0 Fault.Stuck_at_1
    | Circuit.Gate.Or -> merge_all_pins Fault.Stuck_at_1 Fault.Stuck_at_1
    | Circuit.Gate.Nor -> merge_all_pins Fault.Stuck_at_1 Fault.Stuck_at_0
    | Circuit.Gate.Buf ->
      merge_all_pins Fault.Stuck_at_0 Fault.Stuck_at_0;
      merge_all_pins Fault.Stuck_at_1 Fault.Stuck_at_1
    | Circuit.Gate.Not ->
      merge_all_pins Fault.Stuck_at_0 Fault.Stuck_at_1;
      merge_all_pins Fault.Stuck_at_1 Fault.Stuck_at_0
    | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1
    | Circuit.Gate.Xor | Circuit.Gate.Xnor -> ())
  done;
  (* Number the classes in first-member order, over [parent] in place.
     Every parent precedes its child, so in one ascending pass a root
     (its class's first member) opens the next class and any other
     position copies the class already written over its parent. *)
  let classes = ref 0 in
  for i = 0 to size - 1 do
    let p = parent.(i) in
    parent.(i) <-
      (if p = i then begin
         incr classes;
         !classes - 1
       end
       else parent.(p))
  done;
  let class_of_position = parent and classes = !classes in
  (* Counting sort of the positions by class: [member_start.(cls)]
     counts, then ends, then — filled from the back, so that each class
     stays in universe order — starts the class's run. *)
  let member_start = Array.make (classes + 1) 0 in
  Array.iter (fun cls -> member_start.(cls) <- member_start.(cls) + 1) class_of_position;
  for cls = 1 to classes do
    member_start.(cls) <- member_start.(cls) + member_start.(cls - 1)
  done;
  let members = Array.make size 0 in
  for i = size - 1 downto 0 do
    let cls = class_of_position.(i) in
    member_start.(cls) <- member_start.(cls) - 1;
    members.(member_start.(cls)) <- i
  done;
  let reps = Array.init classes (fun cls -> universe.(members.(member_start.(cls)))) in
  (* Each id's position gives way to its class. *)
  Array.iteri
    (fun id i -> if i >= 0 then position.(id) <- class_of_position.(i))
    position;
  { circuit = c; universe; class_by_id = position; reps; member_start; members }

let representatives t = t.reps

let class_count t = Array.length t.reps

let class_of t fault =
  if not (Fault.is_line t.circuit fault) then raise Not_found;
  let cls = t.class_by_id.(Fault.id t.circuit fault) in
  if cls < 0 then raise Not_found else cls

let class_members t cls =
  List.init
    (t.member_start.(cls + 1) - t.member_start.(cls))
    (fun k -> t.universe.(t.members.(t.member_start.(cls) + k)))

let collapse_ratio t =
  float_of_int (Array.length t.reps) /. float_of_int (Array.length t.universe)

(* A test for input pin j stuck-at-(not controlling) must put the
   controlling value on pin j alone; the good output is then
   [controlling XOR inverts] and the fault flips it — exactly the
   condition that detects the output stuck at the complement of that
   value.  Hence that output fault is dominated by every such input
   fault and its whole equivalence class can be dropped. *)
let iter_dominated (c : Circuit.Netlist.t) t f =
  let n = Circuit.Netlist.num_nodes c in
  for gate = 0 to n - 1 do
    if Array.length c.fanins.(gate) >= 2 then begin
      match Circuit.Gate.controlling_value c.kinds.(gate) with
      | None -> ()
      | Some controlling ->
        let forced_output = controlling <> Circuit.Gate.inverts c.kinds.(gate) in
        let dominated =
          Fault.stem_id c gate
            (if forced_output then Fault.Stuck_at_0 else Fault.Stuck_at_1)
        in
        let cls = t.class_by_id.(dominated) in
        if cls >= 0 then
          f cls gate (if controlling then Fault.Stuck_at_0 else Fault.Stuck_at_1)
    end
  done

let dominance (c : Circuit.Netlist.t) t =
  let dropped = Array.make (Array.length t.reps) false in
  iter_dominated c t (fun cls _gate _polarity -> dropped.(cls) <- true);
  Array.to_list t.reps
  |> List.filteri (fun cls _ -> not dropped.(cls))
  |> Array.of_list

let dominance_drops (c : Circuit.Netlist.t) t =
  let acc = ref [] in
  let seen = Array.make (Array.length t.reps) false in
  iter_dominated c t (fun cls gate polarity ->
      if not seen.(cls) then begin
        seen.(cls) <- true;
        let dominators =
          List.init (Array.length c.fanins.(gate)) (fun pin ->
              { Fault.site = Fault.Branch { gate; pin }; polarity })
        in
        acc := (t.reps.(cls), dominators) :: !acc
      end);
  List.rev !acc
