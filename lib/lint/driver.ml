module N = Circuit.Netlist
module F = Faults.Fault

type config = {
  fanout_threshold : int;
  testability : bool;
  learn_depth : int option;
  exact_budget : int option;
}

let default_config =
  { fanout_threshold = 16; testability = true; learn_depth = None;
    exact_budget = None }

(* At most this many [hard-fault] findings, each with a SCOAP difficulty
   of at least [hard_fault_threshold]. *)
let hard_fault_count = 10
let hard_fault_threshold = 100

(* At most this many [resistant-fault] findings: faults whose detection
   probability is provably below [resistant_threshold] per uniform
   pattern — an expected hundred-plus patterns apiece. *)
let resistant_count = 10
let resistant_threshold = 0.01

type report = {
  circuit : N.t;
  diagnostics : Diagnostic.t list;
  untestable : (F.t * Analysis.Untestable.reason) array;
  universe_size : int;
  errors : int;
  warnings : int;
  infos : int;
}

let run ?(config = default_config) (c : N.t) =
  Obs.Trace.with_span "lint.run" @@ fun () ->
  Obs.Trace.add_int "gates" (N.num_gates c);
  let ternary =
    Obs.Trace.with_span "lint.ternary" (fun () -> Analysis.Ternary.analyze c)
  in
  let structural =
    Obs.Trace.with_span "lint.structural" (fun () ->
        Structure.diagnostics ~fanout_threshold:config.fanout_threshold c ternary)
  in
  let universe = Faults.Universe.all c in
  let untestable, hard_diags =
    if not config.testability then ([||], [])
    else
      Obs.Trace.with_span "lint.testability" @@ fun () ->
      let classes = Faults.Collapse.equivalence c universe in
      let analysis =
        Option.map
          (fun depth ->
            Obs.Trace.with_span "lint.analysis" (fun () ->
                Analysis.Engine.build ~learn_depth:(Some depth)
                  ?exact_budget:config.exact_budget c))
          config.learn_depth
      in
      let exact, prover =
        match analysis with
        | Some a -> (Analysis.Engine.exact a, Analysis.Engine.untestable a)
        | None ->
          let exact =
            Option.map
              (fun budget ->
                Obs.Trace.with_span "lint.exact" (fun () -> Analysis.Exact.analyze ~budget c))
              config.exact_budget
          in
          (exact, Analysis.Untestable.prepare ?exact c)
      in
      let untestable = Analysis.Untestable.untestable ~classes prover universe in
      (* SCOAP hard-to-detect warnings over collapsed representatives,
         skipping faults already proven untestable (those are not hard,
         they are impossible). *)
      let flagged_ids = Faults.Universe.mark c (Array.map fst untestable) in
      let flagged fault = flagged_ids.(F.id c fault) in
      let reps = Faults.Collapse.representatives classes in
      let scoap = Tpg.Scoap.analyze c in
      let hard =
        Tpg.Scoap.hardest_faults scoap c reps ~count:hard_fault_count
        |> List.filter (fun (fault, difficulty) ->
               difficulty >= hard_fault_threshold
               && difficulty < Tpg.Scoap.infinite
               && not (flagged fault))
        |> List.map (fun (fault, difficulty) ->
               Diagnostic.make ~node:(F.site_node fault) c ~rule:"hard-fault"
                 ~severity:Diagnostic.Warning
                 (Printf.sprintf "fault %s is hard to detect (SCOAP difficulty %d)"
                    (F.to_string c fault) difficulty))
      in
      (* Random-pattern-resistant warnings: faults whose statically
         bounded detection probability stays below the threshold under
         uniform random patterns.  Unlike hard-fault this is a sound
         bound, not a heuristic cost; d_hi = 0 faults are excluded
         here (they are untestable, not resistant). *)
      let resistant =
        let det = Analysis.Detectability.analyze (Analysis.Signal_prob.analyze c) in
        Analysis.Detectability.resistant det reps ~threshold:resistant_threshold
        |> List.filter (fun (fault, _) -> not (flagged fault))
        |> List.filteri (fun i _ -> i < resistant_count)
        |> List.map (fun (fault, d) ->
               Diagnostic.make ~node:(F.site_node fault) c
                 ~rule:"resistant-fault" ~severity:Diagnostic.Warning
                 (Printf.sprintf
                    "fault %s is random-pattern-resistant (detection \
                     probability < %g per uniform pattern)"
                    (F.to_string c fault)
                    d.Analysis.Signal_prob.hi))
      in
      (* Exact-analysis coverage: wherever the BDD node budget held,
         the untestable list above is complete.  A blown budget is
         worth a warning — the user asked for exactness and did not
         fully get it, and --fail-on warning should notice. *)
      let budget_diags =
        match exact with
        | Some exact when not (Analysis.Exact.complete exact) ->
          [ Diagnostic.make c ~rule:"bdd-budget" ~severity:Diagnostic.Warning
              (Printf.sprintf
                 "exact BDD analysis incomplete: %d of %d faults unclassified \
                  (node budget %d)"
                 (Analysis.Exact.unknown_count exact)
                 (Analysis.Exact.universe_size exact)
                 (Analysis.Exact.node_budget exact)) ]
        | Some _ | None -> []
      in
      (untestable, hard @ resistant @ budget_diags)
  in
  let untestable_diags =
    Array.to_list untestable
    |> List.map (fun (fault, reason) ->
           Diagnostic.make ~node:(F.site_node fault) c ~rule:"untestable-fault"
             ~severity:Diagnostic.Warning
             (Printf.sprintf "stuck-at fault %s is statically untestable (%s)"
                (F.to_string c fault)
                (Analysis.Untestable.reason_to_string reason)))
  in
  let diagnostics =
    List.sort Diagnostic.compare (structural @ untestable_diags @ hard_diags)
  in
  let errors, warnings, infos = Diagnostic.counts diagnostics in
  { circuit = c;
    diagnostics;
    untestable;
    universe_size = Array.length universe;
    errors;
    warnings;
    infos }

let untestable_faults report = Array.map fst report.untestable

let worst_severity report =
  if report.errors > 0 then Some Diagnostic.Error
  else if report.warnings > 0 then Some Diagnostic.Warning
  else if report.infos > 0 then Some Diagnostic.Info
  else None

let render_text report =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "lint: %s\n" (Format.asprintf "%a" N.pp_summary report.circuit);
  (match report.diagnostics with
  | [] -> ()
  | diagnostics ->
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Diagnostic.render_table diagnostics));
  addf "\n%d error%s, %d warning%s, %d info\n" report.errors
    (if report.errors = 1 then "" else "s")
    report.warnings
    (if report.warnings = 1 then "" else "s")
    report.infos;
  addf "untestable faults: %d of %d (universe correctable to %d)\n"
    (Array.length report.untestable)
    report.universe_size
    (report.universe_size - Array.length report.untestable);
  Buffer.contents buf

let fault_json (c : N.t) (fault, reason) =
  let site_fields =
    match fault.F.site with
    | F.Stem id -> [ ("site", Report.Json.String "stem"); ("node", Report.Json.Int id) ]
    | F.Branch { gate; pin } ->
      [ ("site", Report.Json.String "branch");
        ("node", Report.Json.Int gate);
        ("pin", Report.Json.Int pin) ]
  in
  Report.Json.Obj
    ([ ("fault", Report.Json.String (F.to_string c fault)) ]
    @ site_fields
    @ [ ("polarity", Report.Json.Int (if F.polarity_bit fault.F.polarity then 1 else 0));
        ("reason", Report.Json.String (Analysis.Untestable.reason_to_string reason)) ])

let render_json report =
  let c = report.circuit in
  Report.Json.Obj
    [ ("circuit",
       Report.Json.Obj
         [ ("name", Report.Json.String c.N.name);
           ("inputs", Report.Json.Int (N.num_inputs c));
           ("outputs", Report.Json.Int (N.num_outputs c));
           ("gates", Report.Json.Int (N.num_gates c));
           ("depth", Report.Json.Int (N.depth c)) ]);
      ("diagnostics",
       Report.Json.List (List.map Diagnostic.to_json report.diagnostics));
      ("untestable",
       Report.Json.List
         (Array.to_list report.untestable |> List.map (fault_json c)));
      ("summary",
       Report.Json.Obj
         [ ("errors", Report.Json.Int report.errors);
           ("warnings", Report.Json.Int report.warnings);
           ("infos", Report.Json.Int report.infos);
           ("universe", Report.Json.Int report.universe_size);
           ("untestable", Report.Json.Int (Array.length report.untestable));
           ("corrected_universe",
            Report.Json.Int
              (report.universe_size - Array.length report.untestable)) ]) ]
