open Signal_prob

type t = {
  sp : Signal_prob.t;
  obs_stem : interval array;
  obs_pin : interval array array;
  obs_stem_support : Support.set array;
  obs_pin_support : Support.set array array;
  all_indep : bool;
}

let observability t id = t.obs_stem.(id)
let exact t = Signal_prob.exact t.sp && t.all_indep

let analyze ?dominators sp =
  Obs.Trace.with_span "analysis.prob.observability" @@ fun () ->
  let c = Signal_prob.circuit sp in
  let dominators =
    match dominators with Some d -> d | None -> Dominators.compute c
  in
  let n = Circuit.Netlist.num_nodes c in
  let none = Signal_prob.empty_support sp in
  let obs_stem = Array.make n (make 0.0 0.0) in
  let obs_pin =
    Array.map
      (fun fanins -> Array.make (Array.length fanins) (make 0.0 0.0))
      c.Circuit.Netlist.fanins
  in
  let obs_stem_support = Array.make n none in
  let obs_pin_support =
    Array.map
      (fun fanins -> Array.make (Array.length fanins) none)
      c.Circuit.Netlist.fanins
  in
  let fallbacks = ref 0 in
  let conj (a, sa) (b, sb) =
    if Support.disjoint sa sb then (conj_indep a b, Support.union sa sb)
    else begin
      incr fallbacks;
      (conj_frechet a b, Support.union sa sb)
    end
  in
  let topo = c.Circuit.Netlist.topo_order in
  for i = Array.length topo - 1 downto 0 do
    let id = topo.(i) in
    (* Stem observability first: every fanout destination is strictly
       downstream, so its pin observabilities are already final. *)
    let edges = Signal_prob.branches sp id in
    let stem, stem_supp =
      if Circuit.Netlist.is_output c id then (make 1.0 1.0, none)
      else
        match Array.length edges with
        | 0 -> (make 0.0 0.0, none)
        | 1 ->
          let gate, pin = edges.(0) in
          (obs_pin.(gate).(pin), obs_pin_support.(gate).(pin))
        | _ ->
          let supp =
            Array.fold_left
              (fun acc (gate, pin) ->
                Support.union acc obs_pin_support.(gate).(pin))
              none edges
          in
          if Signal_prob.reconvergent sp id then begin
            (* Paths through different branches can interact — even
               cancel — so neither endpoint of the branch-union rule is
               sound.  Upper bound via the immediate dominator: a
               difference at the stem reaches an output only through
               it. *)
            incr fallbacks;
            let hi =
              match Dominators.idom dominators id with
              | Some d -> obs_stem.(d).hi
              | None -> 1.0
            in
            (make 0.0 hi, supp)
          end
          else begin
            (* Non-reconvergent: the stem event is exactly the union of
               the branch events.  Disjoint supports upgrade the bound
               to the independent-union product. *)
            let disjoint_all =
              let seen = ref none and ok = ref true in
              Array.iter
                (fun (gate, pin) ->
                  let s = obs_pin_support.(gate).(pin) in
                  if not (Support.disjoint !seen s) then ok := false;
                  seen := Support.union !seen s)
                edges;
              !ok
            in
            if disjoint_all then
              let lo =
                1.0
                -. Array.fold_left
                     (fun acc (g, p) -> acc *. (1.0 -. obs_pin.(g).(p).lo))
                     1.0 edges
              and hi =
                1.0
                -. Array.fold_left
                     (fun acc (g, p) -> acc *. (1.0 -. obs_pin.(g).(p).hi))
                     1.0 edges
              in
              (make lo hi, supp)
            else begin
              incr fallbacks;
              let lo =
                Array.fold_left
                  (fun acc (g, p) -> Float.max acc obs_pin.(g).(p).lo)
                  0.0 edges
              and hi =
                Array.fold_left
                  (fun acc (g, p) -> acc +. obs_pin.(g).(p).hi)
                  0.0 edges
              in
              (make lo (Float.min 1.0 hi), supp)
            end
          end
    in
    let stem =
      (* The dominator implication holds for every stem, so it may
         tighten the non-reconvergent cases too. *)
      if Circuit.Netlist.is_output c id || Array.length edges = 0 then stem
      else
        match Dominators.idom dominators id with
        | Some d -> make stem.lo (Float.min stem.hi obs_stem.(d).hi)
        | None -> stem
    in
    obs_stem.(id) <- stem;
    obs_stem_support.(id) <- stem_supp;
    (* Pin observabilities of this gate's own inputs. *)
    let srcs = c.Circuit.Netlist.fanins.(id) in
    let local_sensitization pin =
      let side one =
        let acc = ref (make 1.0 1.0, none) in
        Array.iteri
          (fun j src ->
            if j <> pin then begin
              let p = Signal_prob.pin_probability sp ~gate:id ~pin:j in
              let p = if one then p else complement p in
              acc := conj !acc (p, Signal_prob.support sp src)
            end)
          srcs;
        !acc
      in
      match c.Circuit.Netlist.kinds.(id) with
      | Circuit.Gate.Buf | Circuit.Gate.Not | Circuit.Gate.Xor
      | Circuit.Gate.Xnor ->
        (make 1.0 1.0, none)
      | Circuit.Gate.And | Circuit.Gate.Nand -> side true
      | Circuit.Gate.Or | Circuit.Gate.Nor -> side false
      | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1 ->
        (make 1.0 1.0, none)
    in
    Array.iteri
      (fun pin _src ->
        let v, s = conj (local_sensitization pin) (stem, stem_supp) in
        obs_pin.(id).(pin) <- v;
        obs_pin_support.(id).(pin) <- s)
      srcs
  done;
  if Obs.Metrics.enabled () then
    Obs.Metrics.incr ~by:(float_of_int !fallbacks)
      "analysis.prob.frechet_fallbacks";
  Obs.Trace.add_int "frechet_fallbacks" !fallbacks;
  { sp; obs_stem; obs_pin; obs_stem_support; obs_pin_support;
    all_indep = !fallbacks = 0 }

let detection t fault =
  let c = Signal_prob.circuit t.sp in
  let line, obs, obs_supp =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v -> (v, t.obs_stem.(v), t.obs_stem_support.(v))
    | Faults.Fault.Branch { gate; pin } ->
      ( c.Circuit.Netlist.fanins.(gate).(pin),
        t.obs_pin.(gate).(pin),
        t.obs_pin_support.(gate).(pin) )
  in
  let p1 = Signal_prob.probability t.sp line in
  let act =
    match fault.Faults.Fault.polarity with
    | Faults.Fault.Stuck_at_0 -> p1
    | Faults.Fault.Stuck_at_1 -> complement p1
  in
  let act_supp = Signal_prob.support t.sp line in
  if Support.disjoint act_supp obs_supp then conj_indep act obs
  else conj_frechet act obs

(* Mean over faults of 1 - (1 - d)^n at each endpoint of the per-fault
   detection interval. *)
let band detection universe ~patterns =
  if patterns < 0 then invalid_arg "Detectability: negative pattern count";
  let nf = float_of_int patterns in
  let slo = ref 0.0 and shi = ref 0.0 in
  Array.iter
    (fun fault ->
      let d = detection fault in
      slo := !slo +. (1.0 -. ((1.0 -. d.lo) ** nf));
      shi := !shi +. (1.0 -. ((1.0 -. d.hi) ** nf)))
    universe;
  let total = float_of_int (Array.length universe) in
  if total = 0.0 then make 0.0 0.0 else make (!slo /. total) (!shi /. total)

let coverage_band t = band (detection t)

let predicted_curve t universe ~counts =
  Array.map (fun n -> (n, coverage_band t universe ~patterns:n)) counts

let test_length t universe ~target ~max_patterns =
  if max_patterns < 1 then invalid_arg "Detectability: max_patterns < 1";
  let search endpoint =
    let value n = endpoint (coverage_band t universe ~patterns:n) in
    if value max_patterns < target then None
    else begin
      (* smallest n in [1, max_patterns] with value n >= target;
         both endpoints are nondecreasing in n *)
      let lo = ref 1 and hi = ref max_patterns in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if value mid >= target then hi := mid else lo := mid + 1
      done;
      Some !lo
    end
  in
  (search (fun i -> i.lo), search (fun i -> i.hi))

let resistant t universe ~threshold =
  Array.to_list universe
  |> List.filter_map (fun fault ->
         let d = detection t fault in
         if d.hi > 0.0 && d.hi < threshold then Some (fault, d) else None)

let untestable t universe =
  Array.to_list universe
  |> List.filter (fun fault -> (detection t fault).hi <= 0.0)
