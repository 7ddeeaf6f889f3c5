(* Static-analysis walkthrough on the ISCAS-85 c17 benchmark.

   Shows the three products of the analysis engine and what each buys:

   - the dominator tree: which gates every fault effect from a stem is
     forced to cross on its way to an output (the backbone of the
     untestability prover's blocked-dominator proof);
   - the learned implication graph: contrapositives that forward
     propagation alone cannot see, e.g. on c17 "G23=1 => G11=1" is
     learned from the direct implication "G11=0 => G23=0";
   - dominance collapsing: the fault universe a test set must target
     shrinks again beyond equivalence collapsing, and a complete test
     set still detects every dropped fault (checked here by exhaustive
     simulation). *)

let () =
  let c = Circuit.Generators.c17 () in
  let name id = c.Circuit.Netlist.node_names.(id) in
  let engine = Analysis.Engine.build ~learn_depth:(Some 2) c in
  let dom = Analysis.Engine.dominators engine in
  let imp = Option.get (Analysis.Engine.implication engine) in

  print_endline "dominator chains (nearest first):";
  for id = 0 to Circuit.Netlist.num_nodes c - 1 do
    match Analysis.Dominators.dominators dom id with
    | [] -> ()
    | chain ->
      Printf.printf "  %-4s -> %s\n" (name id)
        (String.concat " > " (List.map name chain))
  done;

  Printf.printf "\nimplications (%d, of which %d learned edges):\n"
    (Analysis.Implication.direct_count imp)
    (Analysis.Implication.learned_count imp);
  for id = 0 to Circuit.Netlist.num_nodes c - 1 do
    List.iter
      (fun v ->
        match Analysis.Implication.consequences imp id v with
        | None | Some [] -> ()
        | Some consequences ->
          Printf.printf "  %s=%d => %s\n" (name id) (if v then 1 else 0)
            (String.concat " "
               (List.map
                  (fun (m, w) ->
                    Printf.sprintf "%s=%d" (name m) (if w then 1 else 0))
                  consequences)))
      [ false; true ]
  done;

  (* Dominance collapsing: grade an exhaustive pattern set against the
     full universe, then read the coverage off the collapsed ones. *)
  let universe = Faults.Universe.all c in
  let classes = Faults.Collapse.equivalence c universe in
  let equivalence = Faults.Collapse.representatives classes in
  let dominance = Faults.Collapse.dominance c classes in
  let width = Circuit.Netlist.num_inputs c in
  let patterns =
    Array.init (1 lsl width) (fun v ->
        Array.init width (fun i -> (v lsr i) land 1 = 1))
  in
  let profile = Fsim.Coverage.profile c universe patterns in
  let on subset = Fsim.Coverage.restrict c profile ~universe ~keep:subset in
  Printf.printf
    "\nexhaustive test (%d patterns):\n\
    \  full universe        %2d faults  coverage %.4f\n\
    \  equivalence classes  %2d faults  coverage %.4f\n\
    \  after dominance      %2d faults  coverage %.4f\n"
    (Array.length patterns)
    (Array.length universe)
    (Fsim.Coverage.final_coverage profile)
    (Array.length equivalence)
    (Fsim.Coverage.final_coverage (on equivalence))
    (Array.length dominance)
    (Fsim.Coverage.final_coverage (on dominance));

  (* Every dominance-dropped fault is covered by any test set complete
     for its dominators — the guarantee the collapse rests on. *)
  List.iter
    (fun (dropped, dominators) ->
      Printf.printf "  dropped %-12s dominated by %s\n"
        (Faults.Fault.to_string c dropped)
        (String.concat ", "
           (List.map (Faults.Fault.to_string c) dominators)))
    (Faults.Collapse.dominance_drops c classes)
