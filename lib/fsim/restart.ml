(* Checkpointable fault simulation: run the pattern set in segments,
   snapshotting the per-fault first-detection state after each one.

   Bit-identity of a resumed run rests on two engine properties:
   per-fault results are independent of the other faults in the array
   (dropping only skips the already-detected fault itself), so grading
   the still-undetected subset is exact; and segment boundaries are
   multiples of 64, so {!Logicsim.Packed} packs the remaining patterns
   into the same words a full run would.  Cancellation is checked only
   between segments — a checkpoint therefore always describes a prefix
   of whole segments, never a torn block loop. *)

type outcome = {
  profile : Coverage.profile;
  patterns_done : int;
  resumed_from : int;
  completed : bool;
}

let kind = "fsim"
let segment_failpoint = "fsim.restart.segment"

let engine_tag = function
  | Coverage.Serial -> "serial"
  | Coverage.Parallel -> "ppsfp"
  (* Par results are bit-identical for every domain count, so the
     domain count is not part of the checkpoint identity: a run may be
     resumed with a different [--domains]. *)
  | Coverage.Par _ -> "par"

let meta_fields ~engine ~seed c faults patterns =
  [ ("circuit", Report.Json.String c.Circuit.Netlist.name);
    ("nodes", Report.Json.Int (Circuit.Netlist.num_nodes c));
    ("engine", Report.Json.String (engine_tag engine));
    ("seed", Report.Json.Int seed);
    ("faults", Report.Json.Int (Array.length faults));
    ("patterns", Report.Json.Int (Array.length patterns)) ]

let detection_to_json = function
  | Some i -> Report.Json.Int i
  | None -> Report.Json.Int (-1)

let payload_of ~patterns_done first_detection =
  [ Report.Json.Obj
      [ ("patterns_done", Report.Json.Int patterns_done);
        ("first_detection",
         Report.Json.List
           (Array.to_list (Array.map detection_to_json first_detection))) ] ]

let restore_payload ~nf payload =
  match payload with
  | [ (Report.Json.Obj _ as state) ] ->
    let field name =
      match state with
      | Report.Json.Obj kvs -> List.assoc_opt name kvs
      | _ -> None
    in
    (match (field "patterns_done", field "first_detection") with
    | Some (Report.Json.Int patterns_done), Some (Report.Json.List dets) ->
      if List.length dets <> nf then
        Error "checkpoint first_detection length does not match fault count"
      else begin
        let first_detection = Array.make nf None in
        let ok = ref true in
        List.iteri
          (fun i d ->
            match d with
            | Report.Json.Int v when v >= 0 -> first_detection.(i) <- Some v
            | Report.Json.Int _ -> ()
            | _ -> ok := false)
          dets;
        if not !ok then Error "checkpoint first_detection has non-int entries"
        else Ok (patterns_done, first_detection)
      end
    | _ -> Error "checkpoint payload is missing patterns_done/first_detection")
  | _ -> Error "checkpoint payload must be exactly one state line"

let run ?(engine = Coverage.Parallel) ?(cancel = Robust.Cancel.none)
    ?(every = 1024) ?(resume = false) ~checkpoint ~seed c faults patterns =
  if every < 1 then invalid_arg "Restart.run: every must be >= 1";
  (* Round the cadence up to whole 64-pattern blocks so every segment
     starts on a block boundary. *)
  let every = 64 * ((every + 63) / 64) in
  let nf = Array.length faults in
  let np = Array.length patterns in
  let meta =
    Robust.Checkpoint.meta ~kind
      ~fields:(meta_fields ~engine ~seed c faults patterns)
  in
  let start_state =
    if not resume then Ok (0, Array.make nf None)
    else
      match Robust.Checkpoint.load ~path:checkpoint with
      | Error msg -> Error (Printf.sprintf "cannot resume: %s" msg)
      | Ok (file_meta, payload) ->
        (match
           Robust.Checkpoint.validate ~kind
             ~expect:(meta_fields ~engine ~seed c faults patterns)
             file_meta
         with
        | Error msg -> Error msg
        | Ok () -> restore_payload ~nf payload)
  in
  match start_state with
  | Error _ as e -> e
  | Ok (resumed_from, first_detection) ->
    Obs.Trace.with_span "fsim.restart" @@ fun () ->
    Obs.Trace.add_int "resumed_from" resumed_from;
    let save patterns_done =
      Robust.Checkpoint.save ~path:checkpoint ~meta
        ~payload:(payload_of ~patterns_done first_detection)
    in
    let pos = ref resumed_from in
    let segments = ref 0 in
    if resumed_from = 0 then save 0;
    while !pos < np && not (Robust.Cancel.stop_requested cancel) do
      let len = min every (np - !pos) in
      let segment = Array.sub patterns !pos len in
      let alive = ref [] in
      for i = nf - 1 downto 0 do
        if first_detection.(i) = None then alive := i :: !alive
      done;
      let alive = Array.of_list !alive in
      let segment_profile =
        Coverage.profile ~engine c
          (Array.map (fun i -> faults.(i)) alive)
          segment
      in
      Array.iteri
        (fun k d ->
          match d with
          | Some local -> first_detection.(alive.(k)) <- Some (!pos + local)
          | None -> ())
        segment_profile.Coverage.first_detection;
      pos := !pos + len;
      incr segments;
      save !pos;
      (* The crash drill kills here: state for [0, pos) is durable. *)
      Robust.Inject.hit segment_failpoint
    done;
    Obs.Trace.add_int "segments" !segments;
    if Obs.Metrics.enabled () then
      Obs.Metrics.incr ~by:(float_of_int !segments) "fsim.restart.segments";
    Ok
      { profile = { Coverage.universe_size = nf; pattern_count = np;
                    first_detection };
        patterns_done = !pos;
        resumed_from;
        completed = !pos >= np }
