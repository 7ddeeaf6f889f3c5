module Int_set = Fault_lists.Int_set

let run (c : Circuit.Netlist.t) faults patterns =
  Array.iter (Faults.Fault.check c) faults;
  Instrument.engine_run ~engine:"deductive" ~faults:(Array.length faults)
    ~patterns:(Array.length patterns)
  @@ fun () ->
  let site = Fault_lists.index faults in
  let num_nodes = Circuit.Netlist.num_nodes c in
  let results = Array.make (Array.length faults) None in
  let alive = Array.make (Array.length faults) true in
  let alive_count = ref (Array.length faults) in
  let values = Array.make num_nodes false in
  let lists = Array.make num_nodes Int_set.empty in
  Array.iteri
    (fun pattern_index pattern ->
      if !alive_count > 0 then begin
        if Array.length pattern <> Array.length c.inputs then
          invalid_arg "Deductive.run: pattern width mismatch";
        if Instrument.observing () then
          Instrument.count_fault_evals ~engine:"deductive" !alive_count;
        (* True-value simulation with in-step list deduction. *)
        Array.iteri
          (fun i id ->
            values.(id) <- pattern.(i);
            lists.(id) <-
              Fault_lists.adjust_for_site
                (Fault_lists.stem_faults site id)
                ~good:values.(id) ~alive Int_set.empty)
          c.inputs;
        Array.iter
          (fun id ->
            match c.kinds.(id) with
            | Circuit.Gate.Input -> ()
            | kind ->
              let srcs = c.fanins.(id) in
              let pin_values = Array.map (fun src -> values.(src)) srcs in
              let pin_lists =
                Array.mapi
                  (fun pin src ->
                    match Fault_lists.branch_faults site ~gate:id ~pin with
                    | [] -> lists.(src)
                    | own ->
                      Fault_lists.adjust_for_site own ~good:pin_values.(pin) ~alive
                        lists.(src))
                  srcs
              in
              values.(id) <- Circuit.Gate.eval kind pin_values;
              lists.(id) <-
                Fault_lists.adjust_for_site
                  (Fault_lists.stem_faults site id)
                  ~good:values.(id) ~alive
                  (Fault_lists.gate_flip_list kind ~pin_values ~pin_lists))
          c.topo_order;
        (* Detection: any fault reaching a primary output. *)
        let detected =
          Array.fold_left
            (fun acc out -> Int_set.union acc lists.(out))
            Int_set.empty c.outputs
        in
        Int_set.iter
          (fun fault_index ->
            if alive.(fault_index) then begin
              alive.(fault_index) <- false;
              decr alive_count;
              results.(fault_index) <- Some pattern_index
            end)
          detected
      end)
    patterns;
  results
