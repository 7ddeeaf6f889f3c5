module Int_set = Fault_lists.Int_set

type state = {
  circuit : Circuit.Netlist.t;
  site : Fault_lists.site_index;
  values : bool array;
  lists : Int_set.t array;
  alive : bool array;
  (* Level-ordered event wheel with per-node dedup. *)
  wheel : int list array;
  queued : bool array;
}

let schedule st id =
  if not st.queued.(id) then begin
    st.queued.(id) <- true;
    let level = st.circuit.Circuit.Netlist.levels.(id) in
    st.wheel.(level) <- id :: st.wheel.(level)
  end

(* Recompute one gate's (value, list); returns whether either changed. *)
let refresh st id =
  let c = st.circuit in
  match c.Circuit.Netlist.kinds.(id) with
  | Circuit.Gate.Input -> false
  | kind ->
    let srcs = c.Circuit.Netlist.fanins.(id) in
    let pin_values = Array.map (fun src -> st.values.(src)) srcs in
    let pin_lists =
      Array.mapi
        (fun pin src ->
          match Fault_lists.branch_faults st.site ~gate:id ~pin with
          | [] -> st.lists.(src)
          | own ->
            Fault_lists.adjust_for_site own ~good:pin_values.(pin) ~alive:st.alive
              st.lists.(src))
        srcs
    in
    let value = Circuit.Gate.eval kind pin_values in
    let list =
      Fault_lists.adjust_for_site
        (Fault_lists.stem_faults st.site id)
        ~good:value ~alive:st.alive
        (Fault_lists.gate_flip_list kind ~pin_values ~pin_lists)
    in
    let changed = value <> st.values.(id) || not (Int_set.equal list st.lists.(id)) in
    if changed then begin
      st.values.(id) <- value;
      st.lists.(id) <- list
    end;
    changed

let propagate st =
  let c = st.circuit in
  for level = 0 to Array.length st.wheel - 1 do
    let bucket = st.wheel.(level) in
    st.wheel.(level) <- [];
    List.iter
      (fun id ->
        st.queued.(id) <- false;
        if refresh st id then
          Array.iter (fun dst -> schedule st dst) c.Circuit.Netlist.fanouts.(id))
      bucket
  done

let run (c : Circuit.Netlist.t) faults patterns =
  Array.iter (Faults.Fault.check c) faults;
  Instrument.engine_run ~engine:"concurrent" ~faults:(Array.length faults)
    ~patterns:(Array.length patterns)
  @@ fun () ->
  let num_nodes = Circuit.Netlist.num_nodes c in
  let st =
    { circuit = c;
      site = Fault_lists.index faults;
      values = Array.make num_nodes false;
      lists = Array.make num_nodes Int_set.empty;
      alive = Array.make (Array.length faults) true;
      wheel = Array.make (Circuit.Netlist.depth c + 1) [];
      queued = Array.make num_nodes false }
  in
  let results = Array.make (Array.length faults) None in
  let alive_count = ref (Array.length faults) in
  let first = ref true in
  Array.iteri
    (fun pattern_index pattern ->
      if !alive_count > 0 then begin
        if Array.length pattern <> Array.length c.inputs then
          invalid_arg "Concurrent.run: pattern width mismatch";
        if Instrument.observing () then
          Instrument.count_fault_evals ~engine:"concurrent" !alive_count;
        (* Apply input events (the first pattern seeds everything). *)
        Array.iteri
          (fun i id ->
            let list =
              Fault_lists.adjust_for_site
                (Fault_lists.stem_faults st.site id)
                ~good:pattern.(i) ~alive:st.alive Int_set.empty
            in
            if
              !first
              || st.values.(id) <> pattern.(i)
              || not (Int_set.equal list st.lists.(id))
            then begin
              st.values.(id) <- pattern.(i);
              st.lists.(id) <- list;
              Array.iter (fun dst -> schedule st dst) c.fanouts.(id)
            end)
          c.inputs;
        if !first then begin
          (* Seed every gate once so constants and untouched cones settle. *)
          Array.iter
            (fun id -> if c.kinds.(id) <> Circuit.Gate.Input then schedule st id)
            c.topo_order;
          first := false
        end;
        propagate st;
        (* Detection at the primary outputs (live faults only). *)
        Array.iter
          (fun out ->
            Int_set.iter
              (fun fault_index ->
                if st.alive.(fault_index) then begin
                  st.alive.(fault_index) <- false;
                  decr alive_count;
                  results.(fault_index) <- Some pattern_index
                end)
              st.lists.(out))
          c.outputs
      end)
    patterns;
  results
