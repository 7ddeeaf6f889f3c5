module N = Circuit.Netlist

let reachable_to_output (c : N.t) =
  let n = N.num_nodes c in
  let reach = Array.make n false in
  Array.iter (fun o -> reach.(o) <- true) c.N.outputs;
  (* Reverse topological order: a node reaches an output when any of
     its fanouts does. *)
  for i = Array.length c.N.topo_order - 1 downto 0 do
    let id = c.N.topo_order.(i) in
    if not reach.(id) then
      reach.(id) <- Array.exists (fun g -> reach.(g)) c.N.fanouts.(id)
  done;
  reach

let reconvergent_stems (c : N.t) ?(budget_bits = 64_000_000) () =
  let n = N.num_nodes c in
  let stems =
    Array.to_list c.N.topo_order
    |> List.filter (fun id -> Array.length c.N.fanouts.(id) > 1)
    |> Array.of_list
  in
  let nstems = Array.length stems in
  if nstems = 0 then Some []
  else if n * nstems > budget_bits then None
  else begin
    let stem_index = Hashtbl.create nstems in
    Array.iteri (fun i s -> Hashtbl.replace stem_index s i) stems;
    let words = (nstems + 62) / 63 in
    (* cone.(id) = bitset of fanout stems in id's fanin cone. *)
    let cone = Array.make_matrix n words 0 in
    let reconverges = Array.make nstems false in
    Array.iter
      (fun id ->
        let mine = cone.(id) in
        let fanins = c.N.fanins.(id) in
        (* A stem present in two different pin cones reconverges here. *)
        Array.iteri
          (fun pin src ->
            let src_cone = cone.(src) in
            if pin > 0 then
              for w = 0 to words - 1 do
                let overlap = mine.(w) land src_cone.(w) in
                if overlap <> 0 then
                  for b = 0 to 62 do
                    if overlap land (1 lsl b) <> 0 then
                      reconverges.((w * 63) + b) <- true
                  done
              done;
            for w = 0 to words - 1 do
              mine.(w) <- mine.(w) lor src_cone.(w)
            done;
            (* The driver itself, if a fanout stem, enters the cone at
               its branch — a duplicated fanin thus reconverges too. *)
            match Hashtbl.find_opt stem_index src with
            | Some i ->
              let w = i / 63 and b = i mod 63 in
              if pin > 0 && mine.(w) land (1 lsl b) <> 0 then
                reconverges.(i) <- true;
              mine.(w) <- mine.(w) lor (1 lsl b)
            | None -> ())
          fanins)
      c.N.topo_order;
    Some
      (Array.to_list stems
      |> List.filteri (fun i _ -> reconverges.(i))
      |> List.sort compare)
  end

let diagnostics ?(fanout_threshold = 16) (c : N.t) ternary =
  let n = N.num_nodes c in
  let diag = ref [] in
  let add ?node ~rule ~severity message =
    diag := Diagnostic.make ?node c ~rule ~severity message :: !diag
  in
  let name id = c.N.node_names.(id) in
  (* Constant nets: logic nodes whose stem is provably fixed.  Nodes
     that are constants by construction (Const0/Const1 kinds) are
     intentional and skipped. *)
  for id = 0 to n - 1 do
    match c.N.kinds.(id) with
    | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> ()
    | Circuit.Gate.Input | Circuit.Gate.Buf | Circuit.Gate.Not
    | Circuit.Gate.And | Circuit.Gate.Nand | Circuit.Gate.Or
    | Circuit.Gate.Nor | Circuit.Gate.Xor | Circuit.Gate.Xnor ->
      (match Analysis.Ternary.const_value ternary id with
      | Some bit ->
        let value = if bit then 1 else 0 in
        if N.is_output c id then
          add ~node:id ~rule:"constant-output" ~severity:Diagnostic.Error
            (Printf.sprintf
               "primary output %s is provably stuck at %d for every input vector"
               (name id) value)
        else
          add ~node:id ~rule:"constant-net" ~severity:Diagnostic.Warning
            (Printf.sprintf "net %s is provably stuck at %d (constant propagation)"
               (name id) value)
      | None -> ())
  done;
  (* Dead logic and floating inputs, off one reachability pass. *)
  let reach = reachable_to_output c in
  for id = 0 to n - 1 do
    if not reach.(id) then
      match c.N.kinds.(id) with
      | Circuit.Gate.Input ->
        if Array.length c.N.fanouts.(id) = 0 then
          add ~node:id ~rule:"floating-input" ~severity:Diagnostic.Warning
            (Printf.sprintf "primary input %s drives nothing" (name id))
        else
          add ~node:id ~rule:"floating-input" ~severity:Diagnostic.Warning
            (Printf.sprintf "primary input %s feeds only dead logic" (name id))
      | Circuit.Gate.Const0 | Circuit.Gate.Const1 | Circuit.Gate.Buf
      | Circuit.Gate.Not | Circuit.Gate.And | Circuit.Gate.Nand
      | Circuit.Gate.Or | Circuit.Gate.Nor | Circuit.Gate.Xor
      | Circuit.Gate.Xnor ->
        add ~node:id ~rule:"dead-logic" ~severity:Diagnostic.Warning
          (Printf.sprintf "%s reaches no primary output" (name id))
  done;
  (* Duplicated fanins. *)
  for id = 0 to n - 1 do
    let fanins = c.N.fanins.(id) in
    let seen = Hashtbl.create 4 in
    Array.iteri
      (fun pin src ->
        match Hashtbl.find_opt seen src with
        | Some first_pin ->
          add ~node:id ~rule:"duplicate-fanin" ~severity:Diagnostic.Warning
            (Printf.sprintf "gate %s reads %s on both pin %d and pin %d"
               (name id) (name src) first_pin pin)
        | None -> Hashtbl.add seen src pin)
      fanins
  done;
  (* Fanout extremes plus a circuit-level statistics line. *)
  let max_fanout = ref 0 and max_node = ref (-1) in
  let fanout_sum = ref 0 and stems = ref 0 in
  for id = 0 to n - 1 do
    let f = Array.length c.N.fanouts.(id) in
    fanout_sum := !fanout_sum + f;
    if f > 1 then incr stems;
    if f > !max_fanout then begin
      max_fanout := f;
      max_node := id
    end;
    if f > fanout_threshold then
      add ~node:id ~rule:"excessive-fanout" ~severity:Diagnostic.Warning
        (Printf.sprintf "%s drives %d gates (threshold %d)" (name id) f
           fanout_threshold)
  done;
  if n > 0 then
    add ~rule:"fanout-stats" ~severity:Diagnostic.Info
      (Printf.sprintf
         "max fanout %d%s; %d stems with fanout > 1; mean fanout %.2f"
         !max_fanout
         (if !max_node >= 0 && !max_fanout > 0 then
            Printf.sprintf " at %s" (name !max_node)
          else "")
         !stems
         (float_of_int !fanout_sum /. float_of_int n));
  (match reconvergent_stems c () with
  | Some [] when !stems = 0 -> ()
  | Some recon ->
    add ~rule:"reconvergence" ~severity:Diagnostic.Info
      (Printf.sprintf "%d of %d fanout stems reconverge" (List.length recon)
         !stems)
  | None ->
    add ~rule:"reconvergence" ~severity:Diagnostic.Info
      "reconvergence analysis skipped (circuit above bitset budget)");
  List.rev !diag
