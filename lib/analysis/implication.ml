module N = Circuit.Netlist
module G = Circuit.Gate

type t3 = Unknown | Zero | One

let t3_of_bool b = if b then One else Zero

exception Conflict

(* Literal encoding: node id * polarity in one int. *)
let lit node v = (node lsl 1) lor (if v then 1 else 0)
let lit_node l = l lsr 1
let lit_value l = l land 1 = 1
let lit_neg l = l lxor 1

type state = {
  circuit : N.t;
  values : t3 array;
  mutable trail : int list;   (* nodes assigned since the base mark *)
  queue : int Queue.t;
  in_queue : bool array;
  learned : int list array;   (* literal -> implied literals *)
  infeasible : bool array;    (* literal -> proven to never hold *)
}

let enqueue st gate =
  if not st.in_queue.(gate) then begin
    st.in_queue.(gate) <- true;
    Queue.add gate st.queue
  end

let rec set st node v =
  match st.values.(node) with
  | Unknown ->
    let vb = v = One in
    (* A literal learned infeasible contradicts any state assigning it. *)
    if st.infeasible.(lit node vb) then raise Conflict;
    st.values.(node) <- v;
    st.trail <- node :: st.trail;
    enqueue st node;
    Array.iter (fun dst -> enqueue st dst) st.circuit.N.fanouts.(node);
    (* Learned contrapositive edges fire like unit clauses. *)
    List.iter
      (fun target -> set st (lit_node target) (t3_of_bool (lit_value target)))
      st.learned.(lit node vb)
  | existing -> if existing <> v then raise Conflict

(* Three-valued forward evaluation (single plane, fault-free). *)
let eval3 kind inputs =
  let all_defined = Array.for_all (fun v -> v <> Unknown) inputs in
  let exists v = Array.exists (fun x -> x = v) inputs in
  match kind with
  | G.Const0 -> Zero
  | G.Const1 -> One
  | G.Buf -> inputs.(0)
  | G.Not -> (match inputs.(0) with Unknown -> Unknown | Zero -> One | One -> Zero)
  | G.And -> if exists Zero then Zero else if all_defined then One else Unknown
  | G.Nand -> if exists Zero then One else if all_defined then Zero else Unknown
  | G.Or -> if exists One then One else if all_defined then Zero else Unknown
  | G.Nor -> if exists One then Zero else if all_defined then One else Unknown
  | G.Xor | G.Xnor ->
    if not all_defined then Unknown
    else begin
      let parity = Array.fold_left (fun acc v -> acc <> (v = One)) false inputs in
      let parity = if kind = G.Xnor then not parity else parity in
      if parity then One else Zero
    end
  | G.Input -> Unknown

(* Backward justification of one gate from its (defined) output. *)
let imply_backward st gate =
  let c = st.circuit in
  let kind = c.N.kinds.(gate) in
  let out = st.values.(gate) in
  if out <> Unknown then begin
    let srcs = c.N.fanins.(gate) in
    let pin_values = Array.map (fun src -> st.values.(src)) srcs in
    match kind with
    | G.Input | G.Const0 | G.Const1 -> ()
    | G.Buf -> set st srcs.(0) out
    | G.Not -> set st srcs.(0) (if out = One then Zero else One)
    | G.And | G.Nand | G.Or | G.Nor ->
      let controlling =
        match G.controlling_value kind with
        | Some v -> t3_of_bool v
        | None -> assert false
      in
      let noncontrolling = if controlling = One then Zero else One in
      let controlled_output =
        let base = controlling = One in
        t3_of_bool (if G.inverts kind then not base else base)
      in
      if out <> controlled_output then
        Array.iteri
          (fun pin v -> if v = Unknown then set st srcs.(pin) noncontrolling)
          pin_values
      else begin
        let unknowns = ref [] and has_controlling = ref false in
        Array.iteri
          (fun pin v ->
            if v = Unknown then unknowns := pin :: !unknowns
            else if v = controlling then has_controlling := true)
          pin_values;
        if not !has_controlling then begin
          match !unknowns with
          | [] -> raise Conflict
          | [ pin ] -> set st srcs.(pin) controlling
          | _ :: _ :: _ -> ()
        end
      end
    | G.Xor | G.Xnor ->
      let unknowns = ref [] in
      let parity = ref (out = One) in
      if kind = G.Xnor then parity := not !parity;
      Array.iteri
        (fun pin v ->
          match v with
          | Unknown -> unknowns := pin :: !unknowns
          | One -> parity := not !parity
          | Zero -> ())
        pin_values;
      (match !unknowns with
      | [ pin ] -> set st srcs.(pin) (if !parity then One else Zero)
      | [] ->
        if !parity then raise Conflict
      | _ :: _ :: _ -> ())
  end

let imply_gate st gate =
  match st.circuit.N.kinds.(gate) with
  | G.Input -> ()
  | kind ->
    let pin_values = Array.map (fun src -> st.values.(src)) st.circuit.N.fanins.(gate) in
    let forward = eval3 kind pin_values in
    if forward <> Unknown then set st gate forward;
    imply_backward st gate

let run st =
  while not (Queue.is_empty st.queue) do
    let gate = Queue.pop st.queue in
    st.in_queue.(gate) <- false;
    imply_gate st gate
  done

let clear_queue st =
  Queue.clear st.queue;
  Array.fill st.in_queue 0 (Array.length st.in_queue) false

let undo_to_base st =
  List.iter (fun node -> st.values.(node) <- Unknown) st.trail;
  st.trail <- []

(* Re-derive the base state: circuit constants plus every learned
   constant, propagated to closure.  A conflict here would mean a sound
   engine proved a combinational circuit contradictory — impossible, so
   it is asserted away. *)
let rebase st =
  Array.fill st.values 0 (Array.length st.values) Unknown;
  st.trail <- [];
  clear_queue st;
  (try
     let n = N.num_nodes st.circuit in
     for node = 0 to n - 1 do
       (match st.circuit.N.kinds.(node) with
       | G.Const0 -> set st node Zero
       | G.Const1 -> set st node One
       | _ -> ());
       if st.infeasible.(lit node true) && st.values.(node) = Unknown then
         set st node Zero;
       if st.infeasible.(lit node false) && st.values.(node) = Unknown then
         set st node One
     done;
     run st
   with Conflict -> assert false);
  (* Assignments below the mark are permanent for the following runs. *)
  st.trail <- []

(* Closure of one seed literal on top of the base state.  Returns the
   consequences beyond the base ([None] on contradiction); always
   restores the base. *)
let try_literal st node v =
  match st.values.(node) with
  | Zero -> if v then None else Some []
  | One -> if v then Some [] else None
  | Unknown ->
    (match
       (try
          set st node (t3_of_bool v);
          run st;
          true
        with Conflict -> false)
     with
    | false ->
      clear_queue st;
      undo_to_base st;
      None
    | true ->
      let consequences =
        List.filter_map
          (fun m ->
            if m = node then None
            else Some (m, st.values.(m) = One))
          st.trail
        |> List.sort compare
      in
      undo_to_base st;
      Some consequences)

type t = {
  net : N.t;
  infeasible_tbl : bool array;
  base : t3 array;
  closures : (int * bool) list option array;  (* per literal, post-learning *)
  rounds : int;
  learned_total : int;
  direct_total : int;
}

let learn ?(depth = 1) (c : N.t) =
  if depth < 0 then invalid_arg "Implication.learn: negative depth";
  Obs.Trace.with_span "analysis.implications" @@ fun () ->
  let n = N.num_nodes c in
  let st =
    { circuit = c;
      values = Array.make n Unknown;
      trail = [];
      queue = Queue.create ();
      in_queue = Array.make n false;
      learned = Array.make (2 * n) [];
      infeasible = Array.make (2 * n) false }
  in
  let learned_set = Hashtbl.create 256 in
  let learned_total = ref 0 in
  let mark_infeasible l =
    if not st.infeasible.(l) then begin
      st.infeasible.(l) <- true;
      true
    end
    else false
  in
  rebase st;
  let rounds = ref 0 in
  let continue = ref (depth > 0) in
  while !continue do
    incr rounds;
    let changed = ref false in
    for node = 0 to n - 1 do
      List.iter
        (fun v ->
          match try_literal st node v with
          | None ->
            if mark_infeasible (lit node v) then begin
              changed := true;
              rebase st
            end
          | Some consequences ->
            List.iter
              (fun (m, w) ->
                (* Learn the contrapositive: ¬(m = w) ⇒ ¬(node = v). *)
                let from = lit m (not w) and to_ = lit node (not v) in
                if not (Hashtbl.mem learned_set (from, to_)) then begin
                  Hashtbl.replace learned_set (from, to_) ();
                  st.learned.(from) <- to_ :: st.learned.(from);
                  incr learned_total;
                  changed := true
                end)
              consequences)
        [ false; true ]
    done;
    if (not !changed) || !rounds >= depth then continue := false
  done;
  (* Final materialising sweep: record every literal's closure for O(1)
     queries.  New contradictions discovered here (possible only when
     the depth bound cut learning short) are still recorded as
     constants — they are sound facts. *)
  let closures = Array.make (2 * n) None in
  let direct_total = ref 0 in
  for node = 0 to n - 1 do
    List.iter
      (fun v ->
        match try_literal st node v with
        | None ->
          if mark_infeasible (lit node v) then rebase st;
          closures.(lit node v) <- None
        | Some consequences ->
          direct_total := !direct_total + List.length consequences;
          closures.(lit node v) <- Some consequences)
      [ false; true ]
  done;
  Obs.Trace.add_int "rounds" !rounds;
  Obs.Trace.add_int "learned" !learned_total;
  Obs.Trace.add_int "implications" !direct_total;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "analysis.implications.runs";
    Obs.Metrics.incr ~by:(float_of_int !learned_total) "analysis.implications.learned"
  end;
  { net = c;
    infeasible_tbl = st.infeasible;
    base = Array.copy st.values;
    closures;
    rounds = !rounds;
    learned_total = !learned_total;
    direct_total = !direct_total }

let circuit t = t.net

let infeasible t node v = t.infeasible_tbl.(lit node v)

let constant t node =
  match t.base.(node) with Zero -> Some false | One -> Some true | Unknown -> None

let consequences t node v =
  match t.base.(node) with
  | Zero -> if v then None else Some []
  | One -> if v then Some [] else None
  | Unknown -> t.closures.(lit node v)

let implies t (a, va) (b, vb) =
  (a = b && va = vb)
  || constant t b = Some vb
  ||
  match consequences t a va with
  | None -> true
  | Some closure -> List.mem (b, vb) closure

let constants t =
  let acc = ref [] in
  for node = N.num_nodes t.net - 1 downto 0 do
    match constant t node with
    | Some v -> acc := (node, v) :: !acc
    | None -> ()
  done;
  !acc

let contradictory t =
  let acc = ref [] in
  for node = N.num_nodes t.net - 1 downto 0 do
    if t.infeasible_tbl.(lit node false) && t.infeasible_tbl.(lit node true) then
      acc := node :: !acc
  done;
  !acc

let direct_count t = t.direct_total
let learned_count t = t.learned_total
let rounds t = t.rounds

let _ = lit_neg
