let both_polarities site =
  [ { Fault.site; polarity = Fault.Stuck_at_0 };
    { Fault.site; polarity = Fault.Stuck_at_1 } ]

let count c = 2 * Circuit.Netlist.line_count c

(* Each fault goes to its dense id, so the array is in id order and
   every placeholder is overwritten. *)
let all (c : Circuit.Netlist.t) =
  let placeholder = { Fault.site = Fault.Stem 0; polarity = Fault.Stuck_at_0 } in
  let faults = Array.make (count c) placeholder in
  let place site =
    List.iter (fun fault -> faults.(Fault.id c fault) <- fault) (both_polarities site)
  in
  for id = 0 to Circuit.Netlist.num_nodes c - 1 do
    place (Fault.Stem id);
    Array.iteri (fun pin _src -> place (Fault.Branch { gate = id; pin })) c.fanins.(id)
  done;
  faults

let checkpoint (c : Circuit.Netlist.t) =
  let faults = ref [] in
  let n = Circuit.Netlist.num_nodes c in
  for id = n - 1 downto 0 do
    Array.iteri
      (fun pin src ->
        if Array.length c.fanouts.(src) > 1 then
          faults := both_polarities (Fault.Branch { gate = id; pin }) @ !faults)
      c.fanins.(id);
    if c.kinds.(id) = Circuit.Gate.Input then
      faults := both_polarities (Fault.Stem id) @ !faults
  done;
  Array.of_list !faults

let stems_only (c : Circuit.Netlist.t) =
  let n = Circuit.Netlist.num_nodes c in
  let faults = ref [] in
  for id = n - 1 downto 0 do
    faults := both_polarities (Fault.Stem id) @ !faults
  done;
  Array.of_list !faults

let mark c faults =
  let marks = Array.make (count c) false in
  Array.iter (fun fault -> marks.(Fault.id c fault) <- true) faults;
  marks

(* The faults, in order, whose mark equals [keep]. *)
let filter c marks ~keep faults =
  Array.to_list faults
  |> List.filter (fun fault -> marks.(Fault.id c fault) = keep)
  |> Array.of_list

let collapse_dominance c universe =
  Collapse.dominance c (Collapse.equivalence c (all c))
  |> filter c (mark c universe) ~keep:true

let exclude_untestable c universe ~untestable =
  if Array.length untestable = 0 then universe
  else filter c (mark c untestable) ~keep:false universe
