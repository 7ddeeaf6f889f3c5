type config = {
  random_budget : int;
  random_target : float;
  backtrack_limit : int;
  seed : int;
  use_analysis : bool;
  learn_depth : int;
  exact_budget : int option;
  hybrid : bool;
  resistant_threshold : float;
  podem_time_budget_s : float option;
}

let default_config =
  { random_budget = 512; random_target = 0.90; backtrack_limit = 2000; seed = 7;
    use_analysis = false; learn_depth = 1;
    exact_budget = None; hybrid = false; resistant_threshold = 0.01;
    podem_time_budget_s = None }

type report = {
  patterns : bool array array;
  profile : Fsim.Coverage.profile;
  random_patterns : int;
  deterministic_patterns : int;
  untestable : int;
  aborted : int;
  unknown : int;
  predicted_cutover : int option;
}

type checkpointing = { path : string; every : int; resume : bool }

(* ---- checkpoint encoding ------------------------------------------- *)

let ckpt_kind = "atpg"

(* Everything that shapes the deterministic computation is part of the
   checkpoint identity: the random phase and the target order are
   re-derived on resume, so they must be re-derived from the same
   inputs.  ["engine"] is always ["podem"]; it stays in the identity so
   existing checkpoint files still validate. *)
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
    ("hybrid", Report.Json.Bool config.hybrid);
    ("resistant_threshold", Report.Json.Float config.resistant_threshold) ]

let pattern_to_json pattern =
  Report.Json.String
    (String.init (Array.length pattern) (fun i ->
         if pattern.(i) then '1' else '0'))

let pattern_of_json = function
  | Report.Json.String s ->
    Ok (Array.init (String.length s) (fun i -> s.[i] = '1'))
  | _ -> Error "extra pattern is not a string"

type ckpt_state = {
  ck_processed : int;
  ck_untestable : int;
  ck_aborted : int;
  ck_first_detection : int option array;
  ck_extra : bool array array;  (* chronological *)
}

let ckpt_payload ~processed ~untestable ~aborted ~first_detection ~extra_rev =
  [ Report.Json.Obj
      [ ("processed", Report.Json.Int processed);
        ("untestable", Report.Json.Int untestable);
        ("aborted", Report.Json.Int aborted);
        ("first_detection",
         Report.Json.List
           (Array.to_list
              (Array.map
                 (function
                   | Some i -> Report.Json.Int i
                   | None -> Report.Json.Int (-1))
                 first_detection)));
        ("extra", Report.Json.List (List.rev_map pattern_to_json extra_rev)) ]
  ]

let ckpt_restore ~nf payload =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  match payload with
  | [ Report.Json.Obj kvs ] ->
    let field name = List.assoc_opt name kvs in
    let int name =
      match field name with
      | Some (Report.Json.Int n) -> Ok n
      | _ -> Error (Printf.sprintf "checkpoint is missing int field %S" name)
    in
    let* ck_processed = int "processed" in
    let* ck_untestable = int "untestable" in
    let* ck_aborted = int "aborted" in
    let* dets =
      match field "first_detection" with
      | Some (Report.Json.List l) when List.length l = nf -> Ok l
      | Some (Report.Json.List _) ->
        Error "checkpoint first_detection length does not match fault count"
      | _ -> Error "checkpoint is missing first_detection"
    in
    let ck_first_detection = Array.make nf None in
    let* () =
      List.fold_left
        (fun acc (i, d) ->
          let* () = acc in
          match d with
          | Report.Json.Int v when v >= 0 ->
            ck_first_detection.(i) <- Some v;
            Ok ()
          | Report.Json.Int _ -> Ok ()
          | _ -> Error "checkpoint first_detection has non-int entries")
        (Ok ())
        (List.mapi (fun i d -> (i, d)) dets)
    in
    let* extra =
      match field "extra" with
      | Some (Report.Json.List l) ->
        List.fold_left
          (fun acc p ->
            let* ps = acc in
            let* p = pattern_of_json p in
            Ok (p :: ps))
          (Ok []) l
        |> Result.map (fun rev -> Array.of_list (List.rev rev))
      | _ -> Error "checkpoint is missing extra patterns"
    in
    Ok
      { ck_processed; ck_untestable; ck_aborted; ck_first_detection;
        ck_extra = extra }
  | _ -> Error "checkpoint payload must be exactly one state line"

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

let run ?(config = default_config) ?(cancel = Robust.Cancel.none) ?checkpoint
    c faults =
  Obs.Trace.with_span "atpg.run" @@ fun () ->
  let want_exact = config.exact_budget <> None in
  let analysis =
    if config.use_analysis || config.hybrid || want_exact then
      Some
        (Analysis.Engine.build
           ~learn_depth:
             (if config.use_analysis then Some config.learn_depth else None)
           ?exact_budget:config.exact_budget
           c)
    else None
  in
  let podem_analysis =
    if config.use_analysis || want_exact then analysis else None
  in
  let detectability =
    match analysis with
    | Some a when config.hybrid -> Some (Analysis.Engine.detectability a)
    | _ -> None
  in
  (* Hybrid cutover: stop random generation where the statically
     predicted marginal gain of the next block flattens, instead of
     burning the whole budget; PODEM picks up the resistant tail. *)
  let predicted_cutover =
    match detectability with
    | Some det ->
      Some
        (Analysis.Detectability.cutover det faults
           ~max_patterns:config.random_budget ())
    | None -> None
  in
  let random_cap =
    match predicted_cutover with
    | Some n -> n
    | None -> config.random_budget
  in
  let rng = Stats.Rng.create ~seed:config.seed () in
  let random_patterns, random_profile =
    Obs.Trace.with_span "atpg.random" (fun () ->
        if random_cap = 0 then
          ( [||],
            { Fsim.Coverage.universe_size = Array.length faults;
              pattern_count = 0;
              first_detection = Array.make (Array.length faults) None } )
        else
          Random_tpg.until_coverage rng c faults ~target:config.random_target
            ~max_patterns:random_cap)
  in
  let total = Array.length faults in
  let first_detection = Array.copy random_profile.Fsim.Coverage.first_detection in
  let remaining = ref [] in
  Array.iteri
    (fun i d -> if d = None then remaining := i :: !remaining)
    first_detection;
  let remaining_order =
    let order = List.rev !remaining in
    match detectability with
    | Some det ->
      (* Target the provably random-pattern-resistant faults first:
         their patterns also mop up the merely-unlucky ones. *)
      let resistant, rest =
        List.partition
          (fun i ->
            (Analysis.Detectability.detection det faults.(i))
              .Analysis.Signal_prob.hi < config.resistant_threshold)
          order
      in
      resistant @ rest
    | None -> order
  in
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
      let state =
        match Robust.Checkpoint.load ~path with
        | Error msg -> Error (Printf.sprintf "cannot resume: %s" msg)
        | Ok (file_meta, payload) ->
          (match
             Robust.Checkpoint.validate ~kind:ckpt_kind
               ~expect:(ckpt_fields config c faults)
               file_meta
           with
          | Error _ as e -> e
          | Ok () -> ckpt_restore ~nf:total payload)
      in
      match state with
      | Error msg -> raise (Robust.Checkpoint.Mismatch msg)
      | Ok st ->
        Array.blit st.ck_first_detection 0 first_detection 0 total;
        extra := Array.fold_left (fun acc p -> p :: acc) [] st.ck_extra;
        extra_count := Array.length st.ck_extra;
        untestable := st.ck_untestable;
        aborted := st.ck_aborted;
        processed := st.ck_processed;
        remaining := drop st.ck_processed remaining_order
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
        let verdict, _ =
          Podem.generate ~backtrack_limit:config.backtrack_limit
            ?time_budget_s:config.podem_time_budget_s ~cancel
            ?analysis:podem_analysis c faults.(target)
        in
        match verdict with
        | Podem.Aborted when Robust.Cancel.stop_requested cancel ->
          (* The cancel token fired mid-search, so this [Aborted] is not
             a real per-fault verdict: leave the target in [remaining]
             so it is reported as unknown and retried on resume. *)
          ()
        | verdict ->
          remaining := rest;
          incr processed;
          Obs.Progress.step progress 1;
          (match verdict with
          | Podem.Untestable -> incr untestable
          | Podem.Aborted -> incr aborted
          | Podem.Test pattern ->
            let pattern_index = base + !extra_count in
            extra := pattern :: !extra;
            incr extra_count;
            (* The fresh pattern usually detects a cloud of other faults:
               simulate it against everything still undetected and drop. *)
            let undetected =
              List.filter
                (fun i -> first_detection.(i) = None)
                (target :: !remaining)
            in
            let subset =
              Array.map (fun i -> faults.(i)) (Array.of_list undetected)
            in
            let results = Fsim.Ppsfp.run c subset [| pattern |] in
            List.iteri
              (fun k i ->
                match results.(k) with
                | Some _ -> first_detection.(i) <- Some pattern_index
                | None -> ())
              undetected;
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
  (match predicted_cutover with
  | Some n -> Obs.Trace.add_int "predicted_cutover" n
  | None -> ());
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
  let profile =
    { Fsim.Coverage.universe_size = total;
      pattern_count = Array.length patterns;
      first_detection }
  in
  { patterns; profile; random_patterns = Array.length random_patterns;
    deterministic_patterns = !extra_count; untestable = !untestable;
    aborted = !aborted; unknown; predicted_cutover }

let coverage report = Fsim.Coverage.final_coverage report.profile
