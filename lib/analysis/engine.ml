type t = {
  circuit : Circuit.Netlist.t;
  dominators : Dominators.t;
  implication : Implication.t option;
  prob : Signal_prob.t;
  detectability : Detectability.t;
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
  let prob = Signal_prob.analyze c in
  let detectability = Detectability.analyze ~dominators prob in
  let exact =
    match exact_budget with
    | None -> None
    | Some budget -> Some (Exact.analyze ~budget c)
  in
  let untestable = Untestable.prepare ?implication ~dominators ?exact c in
  { circuit = c; dominators; implication; prob; detectability; exact;
    untestable }

let exact t = t.exact
let implication t = t.implication
let dominators t = t.dominators
let prob t = t.prob
let detectability t = t.detectability
let untestable t = t.untestable
