module N = Circuit.Netlist
module F = Faults.Fault

type reason = Unexcitable | Unobservable | Equivalent | Redundant

let reason_to_string = function
  | Unexcitable -> "unexcitable"
  | Unobservable -> "unobservable"
  | Equivalent -> "equivalent"
  | Redundant -> "redundant"

type t = {
  circuit : N.t;
  ternary : Ternary.t;  (* the intact circuit *)
  observable : bool array;
  implication : Implication.t option;
  dominators : Dominators.t option;
  exact : Exact.t option;
}

let not_const ternary id =
  match Ternary.const_value ternary id with Some _ -> false | None -> true

let prepare ?implication ?dominators ?exact (c : N.t) =
  let ternary = Ternary.analyze c in
  (* Global filter: a stem is worth a per-fault proof only if no
     all-nonconstant path links it to an output.  The cut analysis
     derives a subset of the intact circuit's constants, so it blocks
     strictly less; any fault passing this filter would pass the cut
     proof too, making the filter lossless. *)
  let observable = Array.make (N.num_nodes c) false in
  for i = Array.length c.N.topo_order - 1 downto 0 do
    let id = c.N.topo_order.(i) in
    observable.(id) <-
      N.is_output c id
      || Array.exists (fun g -> observable.(g) && not_const ternary g) c.N.fanouts.(id)
  done;
  { circuit = c; ternary; observable; implication; dominators; exact }

(* Sound per-fault unobservability proof: cut the fault line, then
   forward-propagate "these two machines could differ here".  A net can
   differ only if some fanin differs and the net is not provably
   constant under the cut (cut constants hold in both machines). *)
let prove_unobservable (c : N.t) site =
  let tf = Ternary.analyze_with_cut c site in
  let n = N.num_nodes c in
  let diff = Array.make n false in
  (match site with
  | F.Stem s -> diff.(s) <- not_const tf s
  | F.Branch { gate; pin = _ } -> diff.(gate) <- not_const tf gate);
  Array.iter
    (fun id ->
      if (not diff.(id)) && not_const tf id then
        diff.(id) <- Array.exists (fun src -> diff.(src)) c.N.fanins.(id))
    c.N.topo_order;
  not (Array.exists (fun o -> diff.(o)) c.N.outputs)

(* Fanout cone of a fault site: the nodes whose value can differ
   between the fault-free and the faulty machine.  Facts about nodes
   outside the cone transfer to the faulty machine verbatim. *)
let fanout_cone (c : N.t) site =
  let cone = Array.make (N.num_nodes c) false in
  let rec go id =
    if not cone.(id) then begin
      cone.(id) <- true;
      Array.iter go c.N.fanouts.(id)
    end
  in
  go (F.site_node { F.site; polarity = F.Stuck_at_0 });
  cone

(* Dominator-blocking proof: every propagation path from the site
   crosses each of its absolute dominators; if some dominator has a
   side input held at the controlling value by a learned constant whose
   node lies outside the fault's fanout cone (so the constant holds in
   the faulty machine too), the dominator's output is equal in both
   machines and nothing ever reaches an output.  For a branch fault the
   faulted gate itself is the first "dominator" — any {e other} pin
   constant at the controlling value blocks it.  The cone is built only
   for a side input that passes the cheap constant test. *)
let prove_blocked_dominators t site =
  match (t.implication, t.dominators) with
  | None, _ | _, None -> false
  | Some imp, Some dom ->
    let c = t.circuit in
    let cone = lazy (fanout_cone c site) in
    let blocked ?exclude_pin d =
      match Circuit.Gate.controlling_value c.N.kinds.(d) with
      | None -> false
      | Some controlling ->
        let hit = ref false in
        Array.iteri
          (fun pin src ->
            if
              (not !hit)
              && Some pin <> exclude_pin
              && Implication.constant imp src = Some controlling
              && not (Lazy.force cone).(src)
            then hit := true)
          c.N.fanins.(d);
        !hit
    in
    (match site with
    | F.Stem s -> List.exists (fun d -> blocked d) (Dominators.dominators dom s)
    | F.Branch { gate; pin } ->
      blocked ~exclude_pin:pin gate
      || List.exists (fun d -> blocked d) (Dominators.dominators dom gate))

let verdict t fault =
  let c = t.circuit in
  let stuck = F.polarity_bit fault.F.polarity in
  let line_value =
    match fault.F.site with
    | F.Stem s -> Ternary.value t.ternary s
    | F.Branch { gate; pin } -> Ternary.pin_value c t.ternary ~gate ~pin
  in
  match line_value with
  | Ternary.Const v when v = stuck -> Some Unexcitable
  | Ternary.Const _ | Ternary.Lit _ ->
    let unexcitable_by_implication =
      match t.implication with
      | None -> false
      | Some imp ->
        (* The learned closure proves the activation value infeasible
           on the fault-free line: the line always sits at the stuck
           value, so the faulty machine is the fault-free machine.
           Strictly stronger than the ternary constant check above —
           backward justification and learned edges participate. *)
        let driver =
          match fault.F.site with
          | F.Stem s -> s
          | F.Branch { gate; pin } -> c.N.fanins.(gate).(pin)
        in
        Implication.infeasible imp driver (not stuck)
    in
    if unexcitable_by_implication then Some Unexcitable
    else begin
      let globally_observable =
        match fault.F.site with
        | F.Stem s -> t.observable.(s)
        | F.Branch { gate; pin = _ } ->
          t.observable.(gate) && not_const t.ternary gate
      in
      if
        ((not globally_observable) && prove_unobservable c fault.F.site)
        || prove_blocked_dominators t fault.F.site
      then Some Unobservable
      else
        (* The ROBDD engine's verdicts are exact, not heuristic:
           wherever the node budget held, Untestable means the Boolean
           difference is the constant-zero function.  Asked last so the
           cheaper reasons keep their names. *)
        match t.exact with
        | Some exact when Exact.verdict exact fault = Exact.Untestable ->
          Some Redundant
        | Some _ | None -> None
    end

let untestable ?classes t universe =
  let verdicts = Array.map (verdict t) universe in
  (match classes with
  | None -> ()
  | Some classes ->
    (* Equivalent faults have identical detection sets, so one member's
       untestability proof covers the whole class. *)
    let flagged_class = Hashtbl.create 16 in
    Array.iteri
      (fun i fault ->
        if verdicts.(i) <> None then
          match Faults.Collapse.class_of classes fault with
          | cls -> Hashtbl.replace flagged_class cls ()
          | exception Not_found -> ())
      universe;
    Array.iteri
      (fun i fault ->
        if verdicts.(i) = None then
          match Faults.Collapse.class_of classes fault with
          | cls -> if Hashtbl.mem flagged_class cls then verdicts.(i) <- Some Equivalent
          | exception Not_found -> ())
      universe);
  let flagged = ref [] in
  Array.iteri
    (fun i fault ->
      match verdicts.(i) with
      | Some reason -> flagged := (fault, reason) :: !flagged
      | None -> ())
    universe;
  Array.of_list (List.rev !flagged)

let untestable_faults ?classes t universe =
  Array.map fst (untestable ?classes t universe)
