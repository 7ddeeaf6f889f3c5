type result = Test of bool array | Untestable | Aborted

type stats = { backtracks : int; implications : int }

type guidance = Level_based | Scoap_based of Scoap.t

type decision = {
  input : int;  (* node id *)
  mutable value : bool;
  mutable flipped : bool;
}

exception Abort_search

(* The line the fault sits on, seen from the good machine: the stem node
   for a stem fault, the driving node for a branch fault. *)
let fault_line_driver (c : Circuit.Netlist.t) fault =
  match fault.Faults.Fault.site with
  | Faults.Fault.Stem v -> v
  | Faults.Fault.Branch { gate; pin } -> c.fanins.(gate).(pin)

let generate ?(backtrack_limit = 1000) ?time_budget_s
    ?(cancel = Robust.Cancel.none) ?(guidance = Level_based) ?analysis
    (c : Circuit.Netlist.t) fault =
  (match time_budget_s with
  | Some b when not (0.0 < b) ->
    invalid_arg "Podem.generate: time budget must be > 0"
  | Some _ | None -> ());
  (* Per-fault wall-clock budget, on the same monotonic clock as the
     run deadline; checked with the cancel token at every decision and
     backtrack, both of which map to [Aborted] — a typed verdict, never
     an escaping exception. *)
  let deadline =
    match time_budget_s with
    | Some b -> Some (Obs.Clock.now_s () +. b)
    | None -> None
  in
  let out_of_time () =
    match deadline with
    | Some d -> Obs.Clock.now_s () >= d
    | None -> false
  in
  let should_stop () = Robust.Cancel.stop_requested cancel || out_of_time () in
  (* Cost of choosing [src] as the line to drive toward [value]; the
     search is correct for any cost, guidance only shapes its order. *)
  let choice_cost src value =
    match guidance with
    | Level_based -> c.Circuit.Netlist.levels.(src)
    | Scoap_based scoap -> Scoap.cc scoap src value
  in
  let kinds = c.kinds and fanins = c.fanins and fanouts = c.fanouts
  and levels = c.levels in
  let num_nodes = Circuit.Netlist.num_nodes c in
  let topo_position = Array.make num_nodes 0 in
  Array.iteri (fun i id -> topo_position.(id) <- i) c.topo_order;
  (* Node values.  An input's value is its PI assignment, [Logic5.x],
     [zero] or [one], so the decisions need no array of their own. *)
  let values = Array.make num_nodes Logic5.x in
  let stuck =
    Logic5.plane_of_bool (fault.Faults.Fault.polarity = Faults.Fault.Stuck_at_1)
  in
  let stem, branch_gate, branch_pin =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v -> (v, -1, -1)
    | Faults.Fault.Branch { gate; pin } -> (-1, gate, pin)
  in
  let line = fault_line_driver c fault in
  let implications = ref 0 in
  let backtracks = ref 0 in
  let pruned = ref 0 in
  let implication_graph = Option.bind analysis Analysis.Engine.implication in

  (* Fanout cone of the fault site: the nodes a fault effect can reach.
     Unique sensitization must only constrain side inputs from {e
     outside} this cone — an in-cone line may itself have to carry the
     effect. *)
  let site_cone =
    lazy
      (let cone = Array.make num_nodes false in
       let rec go id =
         if not cone.(id) then begin
           cone.(id) <- true;
           Array.iter go c.fanouts.(id)
         end
       in
       go (Faults.Fault.site_node fault);
       cone)
  in

  (* Can the objective [src = v] still be met under the current PI
     assignment?  Good-machine values are monotone (a defined value
     holds for every completion of the PIs), so a learned consequence of
     [src = v] that contradicts a defined value rules the objective out.
     Used only to order and filter objective candidates — never to
     prune decisions — so verdicts cannot change. *)
  let achievable src v =
    match implication_graph with
    | None -> true
    | Some imp ->
      (match Analysis.Implication.consequences imp src v with
      | None -> false
      | Some consequences ->
        List.for_all
          (fun (m, w) ->
            let g = Logic5.good values.(m) in
            g = Logic5.plane_x || g = Logic5.plane_of_bool w)
          consequences)
  in

  (* The fault's faulty plane, forced on its stem. *)
  let inject id v = if id = stem then Logic5.with_faulty v stuck else v in
  (* A gate's value from its fanins, with the fault injected at its
     stem or branch pin. *)
  let eval_gate id =
    let kind = kinds.(id) in
    inject id
      (if id = branch_gate then
         Logic5.eval_with_pin kind values fanins.(id) ~pin:branch_pin ~faulty:stuck
       else Logic5.eval kind values fanins.(id))
  in

  (* D-frontier: gates with an X output and a fault effect on some input
     (taking the branch injection into account).  Kept as a member set,
     re-decided for every node implication re-evaluates: membership
     depends only on a node's own value and its fanins', and a node is
     re-evaluated whenever one of them changes. *)
  let frontier = Array.make num_nodes 0 in
  let frontier_slot = Array.make num_nodes (-1) in
  let frontier_size = ref 0 in
  let on_frontier id =
    match kinds.(id) with
    | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> false
    | Circuit.Gate.Buf | Circuit.Gate.Not | Circuit.Gate.And
    | Circuit.Gate.Nand | Circuit.Gate.Or | Circuit.Gate.Nor
    | Circuit.Gate.Xor | Circuit.Gate.Xnor ->
      Logic5.has_unknown values.(id)
      &&
      let srcs = fanins.(id) in
      let found = ref false and pin = ref 0 in
      while (not !found) && !pin < Array.length srcs do
        let v = values.(srcs.(!pin)) in
        let v =
          if id = branch_gate && !pin = branch_pin then Logic5.with_faulty v stuck
          else v
        in
        if Logic5.is_fault_effect v then found := true;
        incr pin
      done;
      !found
  in
  let update_frontier id =
    let slot = frontier_slot.(id) in
    if on_frontier id then begin
      if slot < 0 then begin
        frontier.(!frontier_size) <- id;
        frontier_slot.(id) <- !frontier_size;
        incr frontier_size
      end
    end
    else if slot >= 0 then begin
      decr frontier_size;
      let last = frontier.(!frontier_size) in
      frontier.(slot) <- last;
      frontier_slot.(last) <- slot;
      frontier_slot.(id) <- -1
    end
  in
  (* The frontier in topological order, as a full scan would list it. *)
  let frontier_list () =
    let members = Array.sub frontier 0 !frontier_size in
    Array.sort (fun a b -> compare topo_position.(a) topo_position.(b)) members;
    Array.to_list members
  in

  (* Event-driven implication.  Values are a pure function of the PI
     assignment, so after one full sweep only the fanout of the inputs
     assigned, flipped or reset since the last call needs re-evaluating:
     an input's own value is written as it is set, and its fanouts
     wait in [queue], one flat array partitioned by level — level [l]'s
     pending nodes are [queue.(first.(l)) .. queue.(first.(l) + fill.(l)
     - 1)], each node queued at most once — drained in level order, so
     every node is evaluated after all of its changed fanins. *)
  let depth = Circuit.Netlist.depth c in
  let first = Array.make (depth + 2) 0 in
  Array.iter (fun l -> first.(l + 1) <- first.(l + 1) + 1) levels;
  for l = 1 to depth + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  let fill = Array.make (depth + 1) 0 in
  let queue = Array.make num_nodes 0 in
  let queued = Array.make num_nodes false in
  let top = ref 0 in
  let schedule_fanouts u =
    let outs = fanouts.(u) in
    for k = 0 to Array.length outs - 1 do
      let w = outs.(k) in
      if not queued.(w) then begin
        queued.(w) <- true;
        let l = levels.(w) in
        queue.(first.(l) + fill.(l)) <- w;
        fill.(l) <- fill.(l) + 1;
        if l > !top then top := l
      end
    done
  in
  let set id v =
    if v <> values.(id) then begin
      values.(id) <- v;
      schedule_fanouts id
    end
  in
  let assign input v = set input (inject input v) in
  let sweep () =
    Array.iter
      (fun id ->
        values.(id) <-
          (match kinds.(id) with
          | Circuit.Gate.Input -> inject id Logic5.x
          | _ -> eval_gate id))
      c.topo_order;
    Array.iter update_frontier c.topo_order
  in
  let imply () =
    incr implications;
    (* Inputs and constants are level 0; gates start at level 1.  A
       level's segment cannot grow while it drains: fanouts sit on
       higher levels. *)
    let l = ref 1 in
    while !l <= !top do
      for j = first.(!l) to first.(!l) + fill.(!l) - 1 do
        let u = queue.(j) in
        queued.(u) <- false;
        set u (eval_gate u);
        update_frontier u
      done;
      fill.(!l) <- 0;
      incr l
    done;
    top := 0
  in

  let po_has_effect () =
    Array.exists (fun id -> Logic5.is_fault_effect values.(id)) c.outputs
  in

  (* Whether the faulty line currently carries D/D': its good value
     against the stuck faulty value. *)
  let activated () = Logic5.is_fault_effect (Logic5.with_faulty values.(line) stuck) in

  (* Is some primary output reachable from the frontier through X
     nodes?  [stamp] marks this call's visited nodes, so nothing is
     cleared between calls. *)
  let stamp = Array.make num_nodes 0 in
  let generation = ref 0 in
  let pending = Array.make num_nodes 0 in
  let x_path_exists () =
    incr generation;
    let g = !generation in
    let sp = ref 0 in
    for k = 0 to !frontier_size - 1 do
      let id = frontier.(k) in
      stamp.(id) <- g;
      pending.(!sp) <- id;
      incr sp
    done;
    let found = ref false in
    while (not !found) && !sp > 0 do
      decr sp;
      let id = pending.(!sp) in
      if Circuit.Netlist.is_output c id then found := true
      else begin
        let outs = fanouts.(id) in
        for k = 0 to Array.length outs - 1 do
          let dst = outs.(k) in
          if stamp.(dst) <> g && Logic5.has_unknown values.(dst) then begin
            stamp.(dst) <- g;
            pending.(!sp) <- dst;
            incr sp
          end
        done
      end
    done;
    !found
  in

  (* Lowest-level frontier gate, the earliest in topological order among
     equals: the shortest remaining path. *)
  let lowest_frontier_gate () =
    let best = ref frontier.(0) in
    for k = 1 to !frontier_size - 1 do
      let g = frontier.(k) in
      let b = !best in
      if
        levels.(g) < levels.(b)
        || (levels.(g) = levels.(b) && topo_position.(g) < topo_position.(b))
      then best := g
    done;
    !best
  in

  (* Choose the cheapest X input of [fanins] to drive toward [v],
     preferring candidates the implication graph does not rule out;
     falls back to an infeasible one (the decision search sorts it out)
     so behaviour without analysis is unchanged. *)
  let pick_x_input fanins v =
    let best = ref None and fallback = ref None in
    Array.iter
      (fun src ->
        if Logic5.has_unknown values.(src) then
          if achievable src v then begin
            match !best with
            | None -> best := Some src
            | Some cur -> if choice_cost src v < choice_cost cur v then best := Some src
          end
          else begin
            incr pruned;
            match !fallback with
            | None -> fallback := Some src
            | Some cur ->
              if choice_cost src v < choice_cost cur v then fallback := Some src
          end)
      fanins;
    match !best with Some _ as s -> s | None -> !fallback
  in

  (* Unique sensitization: whatever frontier gate carries the effect
     onward, every detection path crosses the frontier's common
     dominators, so their out-of-cone side inputs must settle at
     non-controlling values — schedule the first one still at X. *)
  let unique_sensitization () =
    match analysis with
    | None -> None
    | Some a ->
      let doms =
        Analysis.Dominators.common_dominators (Analysis.Engine.dominators a)
          (frontier_list ())
      in
      let rec try_doms = function
        | [] -> None
        | d :: rest ->
          (match Circuit.Gate.controlling_value c.kinds.(d) with
          | None -> try_doms rest
          | Some controlling ->
            let v = not controlling in
            let cone = Lazy.force site_cone in
            let candidate = ref None in
            Array.iter
              (fun src ->
                if
                  (not cone.(src))
                  && Logic5.has_unknown values.(src)
                  && achievable src v
                then
                  match !candidate with
                  | None -> candidate := Some src
                  | Some cur ->
                    if choice_cost src v < choice_cost cur v then
                      candidate := Some src)
              c.fanins.(d);
            (match !candidate with
            | Some src -> Some (src, v)
            | None -> try_doms rest))
      in
      try_doms doms
  in

  (* Choose (node, boolean objective value). *)
  let objective () =
    if not (activated ()) then Some (line, stuck = Logic5.plane_0)
      (* Drive the line to the complement of the stuck value. *)
    else if !frontier_size = 0 then None
    else begin
      match unique_sensitization () with
      | Some objective -> Some objective
      | None ->
        let gate = lowest_frontier_gate () in
        let v =
          match Circuit.Gate.controlling_value c.kinds.(gate) with
          | Some controlling -> not controlling (* non-controlling value *)
          | None -> false
        in
        (match pick_x_input c.fanins.(gate) v with
        | None -> None
        | Some src -> Some (src, v))
    end
  in

  (* Walk the objective back to a primary input through X lines. *)
  let backtrace node value =
    let rec walk node value =
      match c.kinds.(node) with
      | Circuit.Gate.Input -> Some (node, value)
      | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> None
      | kind ->
        let value = if Circuit.Gate.inverts kind then not value else value in
        let x_input = ref None in
        Array.iter
          (fun src ->
            if Logic5.has_unknown values.(src) then
              match !x_input with
              | None -> x_input := Some src
              | Some cur ->
                if choice_cost src value < choice_cost cur value then x_input := Some src)
          c.fanins.(node);
        (match !x_input with None -> None | Some src -> walk src value)
    in
    walk node value
  in

  let decisions = ref [] in

  let rec attempt () =
    if should_stop () then raise Abort_search;
    imply ();
    if po_has_effect () then finish ()
    else if Logic5.good values.(line) = stuck then step_back ()
      (* Activation is contradicted: the line settled at the stuck value. *)
    else if activated () && (!frontier_size = 0 || not (x_path_exists ())) then
      step_back ()
    else begin
      match objective () with
      | None -> step_back ()
      | Some (node, v) ->
        (match backtrace node v with
        | None -> step_back ()
        | Some (input, value) ->
          decisions := { input; value; flipped = false } :: !decisions;
          assign input (Logic5.of_bool value);
          attempt ())
    end

  and step_back () =
    match !decisions with
    | [] -> Untestable
    | top :: rest ->
      if top.flipped then begin
        assign top.input Logic5.x;
        decisions := rest;
        step_back ()
      end
      else begin
        incr backtracks;
        if !backtracks > backtrack_limit || should_stop () then
          raise Abort_search;
        top.flipped <- true;
        top.value <- not top.value;
        assign top.input (Logic5.of_bool top.value);
        attempt ()
      end

  and finish () =
    Test (Array.map (fun id -> Logic5.good values.(id) = Logic5.plane_1) c.inputs)
  in

  (* Sound pre-search verdicts from the static analyses: a fault on a
     stem with no path to any output is unobservable, and a fault whose
     activation value is infeasible (the line is a learned constant at
     the stuck value) is unexcitable. *)
  let static_verdict =
    match analysis with
    | None -> None
    | Some a -> (
      (* An exact ROBDD bundle settles the question outright: its
         Untestable is a complete proof, and its Testable means the
         other static untestability checks (all sound) can never fire,
         so skip them.  Unknown falls through to the usual checks. *)
      match Option.map (fun e -> Analysis.Exact.verdict e fault) (Analysis.Engine.exact a) with
      | Some Analysis.Exact.Untestable -> Some Untestable
      | Some (Analysis.Exact.Testable _) -> None
      | Some Analysis.Exact.Unknown | None ->
      if
        not
          (Analysis.Dominators.observable
             (Analysis.Engine.dominators a)
             (Faults.Fault.site_node fault))
      then Some Untestable
      else begin
        match implication_graph with
        | None -> None
        | Some imp ->
          if Analysis.Implication.infeasible imp line (stuck = Logic5.plane_0) then
            Some Untestable
          else None
      end)
  in
  let verdict =
    Obs.Trace.with_span "podem.generate" (fun () ->
        let verdict =
          match static_verdict with
          | Some verdict ->
            if Obs.Metrics.enabled () then
              Obs.Metrics.incr "atpg.podem.static_untestable";
            verdict
          | None -> (
            sweep ();
            try attempt () with Abort_search -> Aborted)
        in
        Obs.Trace.add_int "backtracks" !backtracks;
        Obs.Trace.add_int "implications" !implications;
        Obs.Trace.add_int "site" (Faults.Fault.site_node fault);
        Obs.Trace.add_int "pin" branch_pin;
        Obs.Trace.add_int "stuck" (if stuck = Logic5.plane_1 then 1 else 0);
        Obs.Trace.add_int "aborted"
          (match verdict with Aborted -> 1 | Test _ | Untestable -> 0);
        Obs.Trace.add_int "untestable"
          (match verdict with Untestable -> 1 | Test _ | Aborted -> 0);
        if Option.is_some analysis then Obs.Trace.add_int "pruned" !pruned;
        verdict)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "atpg.podem.calls";
    Obs.Metrics.incr ~by:(float_of_int !backtracks) "atpg.podem.backtracks";
    Obs.Metrics.incr ~by:(float_of_int !implications) "atpg.podem.implications";
    Obs.Metrics.incr ~by:(float_of_int !pruned) "atpg.podem.pruned"
  end;
  (verdict, { backtracks = !backtracks; implications = !implications })
