type verdict = Testable of float | Untestable | Unknown

type t = {
  circuit : Circuit.Netlist.t;
  node_budget : int;
  build : Bdd.Build.t option;  (* None when the good machine blew the budget *)
  verdicts : verdict array;  (* by fault id: Universe.all order *)
  unknown_count : int;
}

let default_budget = Bdd.Robdd.default_budget

let analyze ?(budget = default_budget) (c : Circuit.Netlist.t) =
  let universe = Faults.Universe.all c in
  let build =
    Obs.Trace.with_span "analysis.bdd.build" @@ fun () ->
    match Bdd.Build.build ~budget ~order:(Bdd.Build.dfs_order c) c with
    | b ->
      Obs.Trace.add_int "nodes" (Bdd.Robdd.size b.Bdd.Build.man);
      Some b
    | exception Bdd.Robdd.Exceeded -> None
  in
  let fallbacks = ref (if build = None then 1 else 0) in
  let verdicts, unknown_count =
    match build with
    | None -> (Array.make (Array.length universe) Unknown, Array.length universe)
    | Some b ->
      Obs.Trace.with_span "analysis.bdd.redundancy" @@ fun () ->
      let unknown = ref 0 in
      let verdicts =
        Array.map
          (fun fault ->
            match Bdd.Build.detection_function b fault with
            | d ->
              if d = Bdd.Robdd.zero then Untestable
              else Testable (Bdd.Robdd.probability b.Bdd.Build.man d)
            | exception Bdd.Robdd.Exceeded ->
              incr unknown;
              incr fallbacks;
              Unknown)
          universe
      in
      Obs.Trace.add_int "faults" (Array.length universe);
      Obs.Trace.add_int "unknown" !unknown;
      (verdicts, !unknown)
  in
  (match build with
  | Some b ->
    let man = b.Bdd.Build.man in
    Obs.Metrics.set "analysis.bdd.nodes" (float_of_int (Bdd.Robdd.size man));
    Obs.Metrics.incr
      ~by:(float_of_int (Bdd.Robdd.cache_lookups man))
      "analysis.bdd.cache_lookups";
    Obs.Metrics.incr
      ~by:(float_of_int (Bdd.Robdd.cache_hits man))
      "analysis.bdd.cache_hits";
    Obs.Metrics.set "analysis.bdd.cache_hit_rate" (Bdd.Robdd.cache_hit_rate man)
  | None -> ());
  Obs.Metrics.incr ~by:(float_of_int !fallbacks) "analysis.bdd.budget_fallbacks";
  { circuit = c; node_budget = budget; build; verdicts; unknown_count }

let circuit t = t.circuit
let node_budget t = t.node_budget
let built t = t.build <> None
let universe_size t = Array.length t.verdicts
let unknown_count t = t.unknown_count
let complete t = t.build <> None && t.unknown_count = 0

let verdict t fault =
  if Faults.Fault.is_line t.circuit fault then
    t.verdicts.(Faults.Fault.id t.circuit fault)
  else Unknown

let untestable t universe =
  Array.to_list universe
  |> List.filter (fun f -> verdict t f = Untestable)

let signal_probability t id =
  match t.build with
  | None -> None
  | Some b -> Some (Bdd.Robdd.probability b.Bdd.Build.man b.Bdd.Build.stems.(id))

let detection t fault =
  match verdict t fault with
  | Testable p -> Some (Signal_prob.point p)
  | Untestable -> Some (Signal_prob.point 0.0)
  | Unknown -> None

let node_count t =
  match t.build with None -> 0 | Some b -> Bdd.Robdd.size b.Bdd.Build.man

let cache_hit_rate t =
  match t.build with
  | None -> 0.0
  | Some b -> Bdd.Robdd.cache_hit_rate b.Bdd.Build.man

let refine_detection t det fault =
  match verdict t fault with
  | Testable p -> Signal_prob.point p
  | Untestable -> Signal_prob.point 0.0
  | Unknown -> Detectability.detection det fault

let coverage_band t det = Detectability.band (refine_detection t det)

let predicted_curve t det universe ~counts =
  Array.map (fun n -> (n, coverage_band t det universe ~patterns:n)) counts
