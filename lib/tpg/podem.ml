type result = Test of bool array | Untestable | Aborted

type stats = { backtracks : int; implications : int }

type guidance = Level_based | Scoap_based of Scoap.t

type decision = {
  input : int;  (* node id *)
  mutable value : bool;
  mutable flipped : bool;
}

exception Abort_search

(* Where a node sits relative to the fault: outside the subcircuit its
   search reads, in the transitive fanin of the site's fanout cone, or
   in that cone. *)
let outside = 0
let fanin_side = 1
let in_cone = 2

(* Mark the subcircuit of a fault at [site] breadth first, with [nodes]
   as the queue: the cone from the site over fanouts, then the fanin of
   everything marked. *)
let mark_subcircuit (c : Circuit.Netlist.t) ~site region nodes =
  let marked = ref 0 in
  let mark r id =
    if region.(id) = outside then begin
      region.(id) <- r;
      nodes.(!marked) <- id;
      incr marked
    end
  in
  let close r edges =
    let k = ref 0 in
    while !k < !marked do
      let next = edges.(nodes.(!k)) in
      for j = 0 to Array.length next - 1 do
        mark r next.(j)
      done;
      incr k
    done
  in
  mark in_cone site;
  close in_cone c.fanouts;
  close fanin_side c.fanins;
  !marked

(* The line the fault sits on, seen from the good machine: the stem node
   for a stem fault, the driving node for a branch fault. *)
let fault_line_driver (c : Circuit.Netlist.t) fault =
  match fault.Faults.Fault.site with
  | Faults.Fault.Stem v -> v
  | Faults.Fault.Branch { gate; pin } -> c.fanins.(gate).(pin)

(* The node arrays a search works in, made once per circuit.  A search
   leaves state behind only on the nodes of its subcircuit, listed in
   [subcircuit.(0 .. marked - 1)]: their [region], [values],
   [frontier_slot] and [queued] entries, besides [fill].  The next
   search resets those first, so one cut by its backtrack limit, its
   time budget or the cancel token leaves nothing stale.  [stamp] needs
   no reset: [generation] only grows. *)
type workspace = {
  circuit : Circuit.Netlist.t;
  topo_position : int array;
  first : int array;  (* level [l]'s segment of [queue] starts here *)
  values : Logic5.t array;
  region : int array;
  subcircuit : int array;
  mutable marked : int;
  frontier : int array;
  frontier_slot : int array;
  fill : int array;
  queue : int array;
  queued : bool array;
  stamp : int array;
  mutable generation : int;
  pending : int array;
}

let workspace (c : Circuit.Netlist.t) =
  let num_nodes = Circuit.Netlist.num_nodes c in
  let topo_position = Array.make num_nodes 0 in
  Array.iteri (fun i id -> topo_position.(id) <- i) c.topo_order;
  let depth = Circuit.Netlist.depth c in
  let first = Array.make (depth + 2) 0 in
  Array.iter (fun l -> first.(l + 1) <- first.(l + 1) + 1) c.levels;
  for l = 1 to depth + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  { circuit = c; topo_position; first; values = Array.make num_nodes Logic5.x;
    region = Array.make num_nodes outside; subcircuit = Array.make num_nodes 0;
    marked = 0; frontier = Array.make num_nodes 0;
    frontier_slot = Array.make num_nodes (-1); fill = Array.make (depth + 1) 0;
    queue = Array.make num_nodes 0; queued = Array.make num_nodes false;
    stamp = Array.make num_nodes 0; generation = 0;
    pending = Array.make num_nodes 0 }

(* Back to the state [workspace] makes, through the last subcircuit. *)
let reset ws =
  for k = 0 to ws.marked - 1 do
    let id = ws.subcircuit.(k) in
    ws.region.(id) <- outside;
    ws.values.(id) <- Logic5.x;
    ws.frontier_slot.(id) <- -1;
    ws.queued.(id) <- false
  done;
  ws.marked <- 0;
  Array.fill ws.fill 0 (Array.length ws.fill) 0

let search ?(backtrack_limit = 1000) ?time_budget_s
    ?(cancel = Robust.Cancel.none) ?(guidance = Level_based) ws fault =
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
  let c = ws.circuit in
  (* Cost of choosing [src] as the line to drive toward [value]; the
     search is correct for any cost, guidance only shapes its order. *)
  let choice_cost src value =
    match guidance with
    | Level_based -> c.Circuit.Netlist.levels.(src)
    | Scoap_based scoap -> Scoap.cc scoap src value
  in
  let kinds = c.kinds and fanins = c.fanins and fanouts = c.fanouts
  and levels = c.levels and output_flags = c.output_flags in
  let topo_position = ws.topo_position in
  reset ws;
  (* Node values.  An input's value is its PI assignment, [Logic5.x],
     [zero] or [one], so the decisions need no array of their own. *)
  let values = ws.values in
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
  let evals = ref 0 in

  (* The search reads only the fault's subcircuit: the fanout cone of
     the site, the nodes a fault effect can reach, where the D-frontier,
     the X-paths and the observing outputs lie; and that cone's
     transitive fanin, which activation, objectives and backtraces
     walk.  Nothing outside it is evaluated or decided, so an input
     outside stays X and reads 0 in a test.  Marked by [sweep], with
     [mark_subcircuit]. *)
  let region = ws.region in

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
  let frontier = ws.frontier and frontier_slot = ws.frontier_slot in
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

  (* Event-driven implication.  Values are a pure function of the PI
     assignment, so after one sweep of the subcircuit only its part of
     the fanout of the inputs assigned, flipped or reset since the last
     call needs re-evaluating: an input's own value is written as it is
     set, and its fanouts in the subcircuit wait in [queue], one flat
     array partitioned by level — level [l]'s pending nodes are
     [queue.(first.(l)) .. queue.(first.(l) + fill.(l) - 1)], each node
     queued at most once — drained in level order, so every node is
     evaluated after all of its changed fanins. *)
  let first = ws.first and fill = ws.fill and queue = ws.queue
  and queued = ws.queued in
  let top = ref 0 in
  let schedule_fanouts u =
    let outs = fanouts.(u) in
    for k = 0 to Array.length outs - 1 do
      let w = outs.(k) in
      if region.(w) <> outside && not queued.(w) then begin
        queued.(w) <- true;
        let l = levels.(w) in
        queue.(first.(l) + fill.(l)) <- w;
        fill.(l) <- fill.(l) + 1;
        if l > !top then top := l
      end
    done
  in
  (* Outputs carrying D or D', kept by [set]. *)
  let effects = ref 0 in
  let set id v =
    let old = values.(id) in
    if v <> old then begin
      values.(id) <- v;
      if output_flags.(id) then
        effects :=
          !effects
          + Bool.to_int (Logic5.is_fault_effect v)
          - Bool.to_int (Logic5.is_fault_effect old);
      schedule_fanouts id
    end
  in
  let assign input v = set input (inject input v) in
  (* Mark the subcircuit, listing it in [subcircuit] for the next
     [reset], then evaluate it in topological order. *)
  let sweep () =
    ws.marked <-
      mark_subcircuit c ~site:(Faults.Fault.site_node fault) region ws.subcircuit;
    Array.iter
      (fun id ->
        if region.(id) <> outside then begin
          let v =
            match kinds.(id) with
            | Circuit.Gate.Input -> inject id Logic5.x
            | _ -> eval_gate id
          in
          values.(id) <- v;
          if output_flags.(id) && Logic5.is_fault_effect v then incr effects;
          if region.(id) = in_cone then update_frontier id
        end)
      c.topo_order
  in
  let imply () =
    incr implications;
    (* Inputs and constants are level 0; gates start at level 1.  A
       level's segment cannot grow while it drains: fanouts sit on
       higher levels.  A fault effect reaches only the cone, so only
       there can frontier membership change. *)
    let l = ref 1 in
    while !l <= !top do
      evals := !evals + fill.(!l);
      for j = first.(!l) to first.(!l) + fill.(!l) - 1 do
        let u = queue.(j) in
        queued.(u) <- false;
        set u (eval_gate u);
        if region.(u) = in_cone then update_frontier u
      done;
      fill.(!l) <- 0;
      incr l
    done;
    top := 0
  in

  (* Whether the faulty line currently carries D/D': its good value
     against the stuck faulty value. *)
  let activated () = Logic5.is_fault_effect (Logic5.with_faulty values.(line) stuck) in

  (* Is some primary output reachable from the frontier through X
     nodes?  [stamp] marks this call's visited nodes, so nothing is
     cleared between calls; [pending] is the stack. *)
  let stamp = ws.stamp and pending = ws.pending in
  let x_path_exists () =
    ws.generation <- ws.generation + 1;
    let g = ws.generation in
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

  (* The cheapest fanin of [node] still at X to drive toward [v], the
     first among equals, or -1 if there is none. *)
  let pick_x_input node v =
    let srcs = fanins.(node) in
    let best = ref (-1) and best_cost = ref 0 in
    for k = 0 to Array.length srcs - 1 do
      let src = srcs.(k) in
      if Logic5.has_unknown values.(src) then begin
        let cost = choice_cost src v in
        if !best < 0 || cost < !best_cost then begin
          best := src;
          best_cost := cost
        end
      end
    done;
    !best
  in

  (* The value the objective asks of the node [objective] returns, and
     then of the input [backtrace] reaches. *)
  let wanted = ref false in

  (* The node to drive toward [!wanted] next, or -1 for none. *)
  let objective () =
    if not (activated ()) then begin
      (* Drive the line to the complement of the stuck value. *)
      wanted := stuck = Logic5.plane_0;
      line
    end
    else if !frontier_size = 0 then -1
    else begin
      let gate = lowest_frontier_gate () in
      (wanted :=
         match Circuit.Gate.controlling_value kinds.(gate) with
         | Some controlling -> not controlling (* non-controlling value *)
         | None -> false);
      pick_x_input gate !wanted
    end
  in

  (* Walk the objective back to a primary input through X lines, or to
     -1 where a constant or a gate with no X fanin stops the walk. *)
  let rec backtrace node =
    if node < 0 then -1
    else
      match kinds.(node) with
      | Circuit.Gate.Input -> node
      | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> -1
      | kind ->
        if Circuit.Gate.inverts kind then wanted := not !wanted;
        backtrace (pick_x_input node !wanted)
  in

  let decisions = ref [] in

  let rec attempt () =
    if should_stop () then raise Abort_search;
    imply ();
    if !effects > 0 then finish ()
    else if Logic5.good values.(line) = stuck then step_back ()
      (* Activation is contradicted: the line settled at the stuck value. *)
    else if activated () && (!frontier_size = 0 || not (x_path_exists ())) then
      step_back ()
    else begin
      let input = backtrace (objective ()) in
      if input < 0 then step_back ()
      else begin
        let value = !wanted in
        decisions := { input; value; flipped = false } :: !decisions;
        assign input (Logic5.of_bool value);
        attempt ()
      end
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

  let verdict =
    Obs.Trace.with_span "podem.generate" (fun () ->
        sweep ();
        let verdict = try attempt () with Abort_search -> Aborted in
        Obs.Trace.add_int "backtracks" !backtracks;
        Obs.Trace.add_int "implications" !implications;
        Obs.Trace.add_int "evals" !evals;
        Obs.Trace.add_int "site" (Faults.Fault.site_node fault);
        Obs.Trace.add_int "pin" branch_pin;
        Obs.Trace.add_int "stuck" (if stuck = Logic5.plane_1 then 1 else 0);
        Obs.Trace.add_int "aborted"
          (match verdict with Aborted -> 1 | Test _ | Untestable -> 0);
        Obs.Trace.add_int "untestable"
          (match verdict with Untestable -> 1 | Test _ | Aborted -> 0);
        verdict)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "atpg.podem.calls";
    Obs.Metrics.incr ~by:(float_of_int !backtracks) "atpg.podem.backtracks";
    Obs.Metrics.incr ~by:(float_of_int !implications) "atpg.podem.implications";
    Obs.Metrics.incr ~by:(float_of_int !evals) "atpg.podem.gate_evals"
  end;
  (verdict, { backtracks = !backtracks; implications = !implications })

let generate ?backtrack_limit ?time_budget_s ?cancel ?guidance c fault =
  search ?backtrack_limit ?time_budget_s ?cancel ?guidance (workspace c) fault
