type t = {
  circuit : Circuit.Netlist.t;
  dominators : Dominators.t;
  implication : Implication.t option;
  exact : Exact.t option;
  untestable : Untestable.t;
}

let build ?(learn_depth = Some 1) ?exact_budget (c : Circuit.Netlist.t) =
  Obs.Trace.with_span "analysis.build" @@ fun () ->
  let dominators = Dominators.compute c in
  let implication =
    match learn_depth with
    | None -> None
    | Some depth -> Some (Implication.learn ~depth c)
  in
  let exact =
    match exact_budget with
    | None -> None
    | Some budget -> Some (Exact.analyze ~budget c)
  in
  let untestable = Untestable.prepare ?implication ~dominators ?exact c in
  { circuit = c; dominators; implication; exact; untestable }

let exact t = t.exact
let implication t = t.implication
let dominators t = t.dominators
let untestable t = t.untestable
