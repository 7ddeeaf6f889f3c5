type config = {
  random_budget : int;
  random_target : float;
  backtrack_limit : int;
  seed : int;
  use_analysis : bool;
  learn_depth : int;
  exact_budget : int option;
  podem_time_budget_s : float option;
}

let default_config =
  { random_budget = 512; random_target = 0.90; backtrack_limit = 2000; seed = 7;
    use_analysis = false; learn_depth = 1; exact_budget = None;
    podem_time_budget_s = None }

type report = {
  patterns : bool array array;
  profile : Fsim.Coverage.profile;
  random_patterns : int;
  deterministic_patterns : int;
  untestable : int;
  aborted : int;
  unknown : int;
}

type checkpointing = { path : string; every : int; resume : bool }

(* ---- checkpoint encoding ------------------------------------------- *)

let ckpt_kind = "atpg"

(* Everything that shapes the deterministic computation is part of the
   checkpoint identity: the random phase and the target order are
   re-derived on resume, so they must be re-derived from the same
   inputs.  ["engine"] is always ["podem"], ["hybrid"] always [false]
   and ["resistant_threshold"] always [0.01]: they stay in the identity
   so existing checkpoint files still validate, and one written with
   the old hybrid mode on is still refused. *)
let ckpt_fields config c faults =
  let opt_int = function
    | Some n -> Report.Json.Int n
    | None -> Report.Json.Null
  in
  [ ("circuit", Report.Json.String c.Circuit.Netlist.name);
    ("nodes", Report.Json.Int (Circuit.Netlist.num_nodes c));
    ("faults", Report.Json.Int (Array.length faults));
    ("seed", Report.Json.Int config.seed);
    ("random_budget", Report.Json.Int config.random_budget);
    ("random_target", Report.Json.Float config.random_target);
    ("backtrack_limit", Report.Json.Int config.backtrack_limit);
    ("engine", Report.Json.String "podem");
    ("use_analysis", Report.Json.Bool config.use_analysis);
    ("learn_depth", Report.Json.Int config.learn_depth);
    ("exact_budget", opt_int config.exact_budget);
    ("hybrid", Report.Json.Bool false);
    ("resistant_threshold", Report.Json.Float 0.01) ]

let pattern_to_json pattern =
  Report.Json.String
    (String.init (Array.length pattern) (fun i ->
         if pattern.(i) then '1' else '0'))

let pattern_of_json ~inputs = function
  | Report.Json.String s
    when String.length s = inputs && String.for_all (fun b -> b = '0' || b = '1') s
    ->
    Ok (Array.init inputs (fun i -> s.[i] = '1'))
  | Report.Json.String s ->
    Error
      (Printf.sprintf "checkpoint extra pattern %S is not %d bits of 0/1" s inputs)
  | _ -> Error "extra pattern is not a string"

type ckpt_state = {
  ck_processed : int;
  ck_untestable : int;
  ck_aborted : int;
  ck_first_detection : int option array;
  ck_extra : bool array array;  (* chronological *)
}

(* A state written since aborted targets get a SAT proof carries
   [("proof", "sat")].  An older state's aborts were never offered the
   proof, so it resumes only when it holds none; the identity fields
   stay as they were, so a state without aborts still validates. *)
let proof_mark = ("proof", Report.Json.String "sat")

let ckpt_payload ~processed ~untestable ~aborted ~first_detection ~extra_rev =
  [ Report.Json.Obj
      [ ("processed", Report.Json.Int processed);
        ("untestable", Report.Json.Int untestable);
        ("aborted", Report.Json.Int aborted);
        proof_mark;
        ("first_detection", Robust.Checkpoint.detections_to_json first_detection);
        ("extra", Report.Json.List (List.rev_map pattern_to_json extra_rev)) ]
  ]

(* The state must be one this run could have reached: [inputs]-bit
   extra patterns, detections by one of the [base] random or the extra
   patterns, and at most one verdict (untestable, aborted or a new
   pattern) per processed target, out of [targets]. *)
let ckpt_restore ~nf ~inputs ~base ~targets state =
  let ( let* ) = Result.bind in
  let field name = List.assoc_opt name state in
  let int name =
    match field name with
    | Some (Report.Json.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "checkpoint is missing int field %S" name)
  in
  let* ck_processed = int "processed" in
  let* ck_untestable = int "untestable" in
  let* ck_aborted = int "aborted" in
  let* extra =
    match field "extra" with
    | Some (Report.Json.List l) ->
      List.fold_left
        (fun acc p ->
          let* ps = acc in
          let* p = pattern_of_json ~inputs p in
          Ok (p :: ps))
        (Ok []) l
      |> Result.map (fun rev -> Array.of_list (List.rev rev))
    | _ -> Error "checkpoint is missing extra patterns"
  in
  let* () =
    if ck_untestable < 0 || ck_aborted < 0
       || ck_untestable + ck_aborted + Array.length extra > ck_processed
       || ck_processed > targets
    then
      Error
        (Printf.sprintf
           "checkpoint counts are impossible: %d untestable, %d aborted and \
            %d patterns from %d of %d targets processed"
           ck_untestable ck_aborted (Array.length extra) ck_processed targets)
    else Ok ()
  in
  let* () =
    match field (fst proof_mark) with
    | Some mark when mark = snd proof_mark -> Ok ()
    | None when ck_aborted = 0 -> Ok ()
    | None ->
      Error
        (Printf.sprintf
           "checkpoint predates the SAT proof of aborted targets and counts \
            %d aborted, which the proof may settle: it cannot resume to the \
            uninterrupted report; rerun without --resume"
           ck_aborted)
    | Some _ -> Error "checkpoint has an unknown proof mark"
  in
  let* ck_first_detection =
    Robust.Checkpoint.detections_of_json ~n:nf ~bound:(base + Array.length extra)
      (Option.value ~default:Report.Json.Null (field "first_detection"))
  in
  Ok
    { ck_processed; ck_untestable; ck_aborted; ck_first_detection;
      ck_extra = extra }

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

(* ---- the three steps of a target --------------------------------- *)

(* PODEM's first budget.  On the lot design (lsi_chip 1982, scale 5),
   every ATPG target PODEM settles takes at most 48 backtracks, except
   one test at 1,919 and two untestable faults at 1,015; the 7 others
   exhaust the full 2,000.  The proof cannot go first: over the lot
   design's collapsed faults, the 1,571 that PODEM settles within 64
   backtracks take it 158 ms and the proof 2,323 ms, and one that PODEM
   proves untestable in 8 backtracks (0.09 ms) takes the proof 8,152
   conflicts (300 ms; release build). *)
let first_backtrack_limit = 64

(* The proof's conflict budget.  Of the collapsed faults that PODEM
   aborts at 64 backtracks, the proof proves every untestable one within
   4 conflicts on the lot design, 184 on lsi:6, 525 on lsi:8 and 671 on
   lsi:10, except two there at 3,237 and 3,250 (0.12 s each), and finds
   a test for every testable one on the lot design within 120.  A proof
   that runs out costs more per conflict the longer it runs, since no
   learnt clause is ever deleted: the two on lsi:12 take 60 ms
   together. *)
let sat_conflict_budget = 1_000

(* Tseitin clauses for [out] = [kind] over the literals [ins]. *)
let gate_clauses solver kind out ins =
  let add = Sat.add_clause solver in
  (* [out] <-> the conjunction of [ins]. *)
  let conj out ins =
    List.iter (fun a -> add [ -out; a ]) ins;
    add (out :: List.map (fun a -> -a) ins)
  in
  let rec parity out = function
    | [] -> add [ -out ]
    | [ a ] ->
      add [ -out; a ];
      add [ out; -a ]
    | [ a; b ] ->
      add [ -out; a; b ];
      add [ -out; -a; -b ];
      add [ out; -a; b ];
      add [ out; a; -b ]
    | a :: rest ->
      let x = Sat.new_var solver in
      parity x rest;
      parity out [ a; x ]
  in
  let negated = List.map (fun a -> -a) in
  match kind with
  | Circuit.Gate.Input -> ()
  | Circuit.Gate.Const0 -> add [ -out ]
  | Circuit.Gate.Const1 -> add [ out ]
  | Circuit.Gate.Buf | Circuit.Gate.Xor -> parity out ins
  | Circuit.Gate.Not | Circuit.Gate.Xnor -> parity (-out) ins
  | Circuit.Gate.And -> conj out ins
  | Circuit.Gate.Nand -> conj (-out) ins
  | Circuit.Gate.Or -> conj (-out) (negated ins)
  | Circuit.Gate.Nor -> conj out (negated ins)

let prove ?(conflict_budget = sat_conflict_budget) ?(cancel = Robust.Cancel.none)
    (c : Circuit.Netlist.t) fault =
  Faults.Fault.check c fault;
  Obs.Trace.with_span "atpg.sat" @@ fun () ->
  let n = Circuit.Netlist.num_nodes c in
  let solver = Sat.create () in
  let site = Faults.Fault.site_node fault in
  let stuck = Faults.Fault.polarity_bit fault.Faults.Fault.polarity in
  let stem, branch_gate, branch_pin =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v -> (v, -1, -1)
    | Faults.Fault.Branch { gate; pin } -> (-1, gate, pin)
  in
  let line = if stem >= 0 then stem else c.fanins.(branch_gate).(branch_pin) in
  let literal value v = if value then v else -v in
  (* The subcircuit PODEM reads: the site's fanout cone, then that
     cone's transitive fanin.  Fanins have lower ids than their gates,
     so one pass up closes the cone and one pass down the fanin. *)
  let cone = Array.make n false in
  cone.(site) <- true;
  for id = site + 1 to n - 1 do
    cone.(id) <- Array.exists (fun src -> cone.(src)) c.fanins.(id)
  done;
  let read = Array.copy cone in
  for id = n - 1 downto 0 do
    if read.(id) then Array.iter (fun src -> read.(src) <- true) c.fanins.(id)
  done;
  (* The good machine over the subcircuit, and a variable held at the
     stuck value. *)
  let good = Array.make n 0 in
  Array.iteri (fun id r -> if r then good.(id) <- Sat.new_var solver) read;
  let stuck_at = Sat.new_var solver in
  Sat.add_clause solver [ literal stuck stuck_at ];
  Array.iteri
    (fun id v ->
      if v > 0 then
        gate_clauses solver c.kinds.(id) v
          (Array.to_list (Array.map (fun src -> good.(src)) c.fanins.(id))))
    good;
  (* The faulty machine over the cone, reading the good value outside
     it: a stem fault's faulty value is the stuck value, and a branch
     fault ties its pin of the gate's faulty copy to it. *)
  let faulty = Array.make n 0 in
  Array.iteri
    (fun id r ->
      if r then faulty.(id) <- (if id = stem then stuck_at else Sat.new_var solver))
    cone;
  Array.iteri
    (fun id v ->
      if v > 0 && id <> stem then
        gate_clauses solver c.kinds.(id) v
          (List.mapi
             (fun pin src ->
               if id = branch_gate && pin = branch_pin then stuck_at
               else if cone.(src) then faulty.(src)
               else good.(src))
             (Array.to_list c.fanins.(id))))
    faulty;
  (* Activation: the faulty line's good value is the complement of the
     stuck value.  Detection: some output of the cone differs between
     the machines. *)
  Sat.add_clause solver [ literal (not stuck) good.(line) ];
  let differences =
    Array.fold_left
      (fun acc o ->
        if cone.(o) then begin
          let d = Sat.new_var solver in
          Sat.add_clause solver [ -d; good.(o); faulty.(o) ];
          Sat.add_clause solver [ -d; -good.(o); -faulty.(o) ];
          d :: acc
        end
        else acc)
      [] c.outputs
  in
  Sat.add_clause solver (List.rev differences);
  let outcome = Sat.solve ~conflict_budget ~cancel solver in
  let untestable = outcome = Sat.Unsat and budget_out = outcome = Sat.Budget_out in
  Obs.Trace.add_int "site" site;
  Obs.Trace.add_int "pin" branch_pin;
  Obs.Trace.add_int "stuck" (Bool.to_int stuck);
  Obs.Trace.add_int "vars" (Sat.num_vars solver);
  Obs.Trace.add_int "clauses" (Sat.num_clauses solver);
  Obs.Trace.add_int "conflicts" (Sat.conflicts solver);
  Obs.Trace.add_int "untestable" (Bool.to_int untestable);
  Obs.Trace.add_int "budget_out" (Bool.to_int budget_out);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "atpg.sat.calls";
    Obs.Metrics.incr ~by:(float_of_int (Bool.to_int untestable)) "atpg.sat.untestable";
    Obs.Metrics.incr ~by:(float_of_int (Sat.conflicts solver)) "atpg.sat.conflicts";
    Obs.Metrics.incr ~by:(float_of_int (Bool.to_int budget_out)) "atpg.sat.budget_outs"
  end;
  match outcome with
  | Sat.Unsat -> Podem.Untestable
  | Sat.Budget_out -> Podem.Aborted
  | Sat.Sat model ->
    Podem.Test (Array.map (fun i -> good.(i) > 0 && model.(good.(i))) c.inputs)

(* One target: PODEM within the first budget; if it aborts, the proof;
   if that does not prove the fault untestable, PODEM again with the
   full budget.  The longer search repeats the shorter one before it
   goes on, so the pattern or verdict it returns is the one a single
   full search returns.  A time budget bounds the whole: the second
   search gets what is left of it. *)
let settle config ~cancel ?analysis c fault =
  let deadline =
    Option.map (fun b -> Obs.Clock.now_s () +. b) config.podem_time_budget_s
  in
  let search backtrack_limit time_budget_s =
    fst (Podem.generate ~backtrack_limit ?time_budget_s ~cancel ?analysis c fault)
  in
  let first = min first_backtrack_limit config.backtrack_limit in
  match search first config.podem_time_budget_s with
  | (Podem.Test _ | Podem.Untestable) as verdict -> verdict
  | Podem.Aborted when Robust.Cancel.stop_requested cancel -> Podem.Aborted
  | Podem.Aborted -> (
    match prove ~cancel c fault with
    | Podem.Untestable -> Podem.Untestable
    | Podem.Test _ | Podem.Aborted ->
      if first = config.backtrack_limit || Robust.Cancel.stop_requested cancel
      then Podem.Aborted
      else (
        match deadline with
        | None -> search config.backtrack_limit None
        | Some d ->
          let left = d -. Obs.Clock.now_s () in
          if left > 0.0 then search config.backtrack_limit (Some left)
          else Podem.Aborted))

let run ?(config = default_config) ?(cancel = Robust.Cancel.none) ?checkpoint
    c faults =
  if config.learn_depth < 0 then invalid_arg "Atpg.run: negative learn_depth";
  Obs.Trace.with_span "atpg.run" @@ fun () ->
  let analysis =
    if config.use_analysis || config.exact_budget <> None then
      Some
        (Analysis.Engine.build
           ~learn_depth:
             (if config.use_analysis then Some config.learn_depth else None)
           ?exact_budget:config.exact_budget
           c)
    else None
  in
  let rng = Stats.Rng.create ~seed:config.seed () in
  let random_patterns, random_profile =
    Obs.Trace.with_span "atpg.random" (fun () ->
        Random_tpg.until_coverage rng c faults ~target:config.random_target
          ~max_patterns:config.random_budget)
  in
  let total = Array.length faults in
  let st = Fsim.Coverage.state ~n:1 total in
  let first_detection = st.Fsim.Coverage.first in
  Array.blit random_profile.Fsim.Coverage.first_detection 0 first_detection 0
    total;
  let remaining = ref [] in
  Array.iteri
    (fun i d -> if d = None then remaining := i :: !remaining)
    first_detection;
  let remaining_order = List.rev !remaining in
  let remaining = ref remaining_order in
  let extra = ref [] in
  let extra_count = ref 0 in
  let untestable = ref 0 in
  let aborted = ref 0 in
  let processed = ref 0 in
  let base = Array.length random_patterns in
  (* The random phase and target order above are pure functions of the
     config and inputs, so a resume re-derives them and only the
     deterministic phase's incremental state lives in the checkpoint. *)
  (match checkpoint with
  | Some { path; every; resume } ->
    if every < 1 then invalid_arg "Atpg.run: checkpoint every must be >= 1";
    if resume then begin
      let ck =
        Robust.Checkpoint.resume ~path ~kind:ckpt_kind
          ~expect:(ckpt_fields config c faults)
          (ckpt_restore ~nf:total ~inputs:(Circuit.Netlist.num_inputs c) ~base
             ~targets:(List.length remaining_order))
      in
      Array.blit ck.ck_first_detection 0 first_detection 0 total;
      (* Grade the checkpoint's patterns once more against every fault
         it leaves undetected: a state saved by a build that graded each
         pattern against the unprocessed targets only lacks the aborts a
         later pattern detects. *)
      ignore (Fsim.Coverage.extend c faults st ~offset:base ck.ck_extra);
      extra := Array.fold_left (fun acc p -> p :: acc) [] ck.ck_extra;
      extra_count := Array.length ck.ck_extra;
      untestable := ck.ck_untestable;
      aborted := ck.ck_aborted;
      processed := ck.ck_processed;
      remaining := drop ck.ck_processed remaining_order
    end
  | None -> ());
  (* One progress item per fault target popped; already-detected
     targets step too, so items end exactly at the initial total. *)
  let progress =
    Obs.Progress.start ~label:"atpg.podem"
      ~total:(List.length remaining_order) ()
  in
  if !processed > 0 then Obs.Progress.step progress !processed;
  let save_ckpt () =
    match checkpoint with
    | None -> ()
    | Some { path; _ } ->
      Robust.Checkpoint.save ~path
        ~meta:
          (Robust.Checkpoint.meta ~kind:ckpt_kind
             ~fields:(ckpt_fields config c faults))
        ~payload:
          (ckpt_payload ~processed:!processed ~untestable:!untestable
             ~aborted:!aborted ~first_detection ~extra_rev:!extra)
  in
  let since_save = ref 0 in
  let maybe_ckpt () =
    match checkpoint with
    | None -> ()
    | Some { every; _ } ->
      incr since_save;
      if !since_save >= every then begin
        since_save := 0;
        save_ckpt ()
      end
  in
  save_ckpt ();
  let rec deterministic () =
    match !remaining with
    | _ when Robust.Cancel.stop_requested cancel -> ()
    | [] -> ()
    | target :: rest ->
      if first_detection.(target) <> None then begin
        remaining := rest;
        incr processed;
        Obs.Progress.step progress 1;
        maybe_ckpt ();
        deterministic ()
      end
      else begin
        match settle config ~cancel ?analysis c faults.(target) with
        | Podem.Aborted when Robust.Cancel.stop_requested cancel ->
          (* The cancel token fired mid-search or mid-proof, so this
             [Aborted] is not a real per-fault verdict: leave the target
             in [remaining] so it is reported as unknown and retried on
             resume. *)
          ()
        | verdict ->
          remaining := rest;
          incr processed;
          Obs.Progress.step progress 1;
          (match verdict with
          | Podem.Untestable -> incr untestable
          | Podem.Aborted -> incr aborted
          | Podem.Test pattern ->
            (* The fresh pattern usually detects a cloud of other faults,
               earlier aborts among them: grade it against every fault
               still undetected. *)
            ignore
              (Fsim.Coverage.extend c faults st ~offset:(base + !extra_count)
                 [| pattern |]);
            extra := pattern :: !extra;
            incr extra_count;
            assert (first_detection.(target) <> None));
          maybe_ckpt ();
          deterministic ()
      end
  in
  Obs.Trace.with_span "atpg.deterministic" deterministic;
  save_ckpt ();
  Obs.Progress.finish progress;
  let unknown =
    List.length (List.filter (fun i -> first_detection.(i) = None) !remaining)
  in
  Obs.Trace.add_int "random_patterns" (Array.length random_patterns);
  Obs.Trace.add_int "deterministic_patterns" !extra_count;
  Obs.Trace.add_int "untestable" !untestable;
  Obs.Trace.add_int "aborted" !aborted;
  Obs.Trace.add_int "unknown" unknown;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ~by:(float_of_int (Array.length random_patterns))
      "atpg.random_patterns";
    Obs.Metrics.incr ~by:(float_of_int !extra_count) "atpg.deterministic_patterns";
    Obs.Metrics.incr ~by:(float_of_int !untestable) "atpg.untestable";
    Obs.Metrics.incr ~by:(float_of_int !aborted) "atpg.aborted";
    Obs.Metrics.incr ~by:(float_of_int unknown) "atpg.unknown"
  end;
  let patterns = Array.append random_patterns (Array.of_list (List.rev !extra)) in
  let profile, _ = Fsim.Coverage.profiles st ~pattern_count:(Array.length patterns) in
  { patterns; profile; random_patterns = Array.length random_patterns;
    deterministic_patterns = !extra_count; untestable = !untestable;
    aborted = !aborted; unknown }

let coverage report = Fsim.Coverage.final_coverage report.profile
