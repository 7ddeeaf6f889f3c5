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

let payload_of ~patterns_done first_detection =
  [ Report.Json.Obj
      [ ("patterns_done", Report.Json.Int patterns_done);
        ("first_detection", Robust.Checkpoint.detections_to_json first_detection)
      ] ]

(* The state must describe a prefix of this run: at most [np] patterns
   graded, and every detection among them. *)
let restore ~nf ~np state =
  match
    (List.assoc_opt "patterns_done" state, List.assoc_opt "first_detection" state)
  with
  | Some (Report.Json.Int patterns_done), Some (Report.Json.List _ as dets) ->
    if patterns_done < 0 || patterns_done > np then
      Error
        (Printf.sprintf "checkpoint patterns_done %d is outside [0, %d]"
           patterns_done np)
    else
      Result.map
        (fun first_detection -> (patterns_done, first_detection))
        (Robust.Checkpoint.detections_of_json ~n:nf ~bound:patterns_done dets)
  | _ -> Error "checkpoint payload is missing patterns_done/first_detection"

let run ?(engine = Coverage.Parallel) ?(cancel = Robust.Cancel.none)
    ?(every = 1024) ?(resume = false) ~checkpoint ~seed c faults patterns =
  if every < 1 then invalid_arg "Restart.run: every must be >= 1";
  (* Round the cadence up to whole 64-pattern blocks so every segment
     starts on a block boundary. *)
  let every = 64 * ((every + 63) / 64) in
  let nf = Array.length faults in
  let np = Array.length patterns in
  let fields = meta_fields ~engine ~seed c faults patterns in
  let resumed_from, first_detection =
    if resume then
      Robust.Checkpoint.resume ~path:checkpoint ~kind ~expect:fields
        (restore ~nf ~np)
    else (0, Array.make nf None)
  in
  Obs.Trace.with_span "fsim.restart" @@ fun () ->
  Obs.Trace.add_int "resumed_from" resumed_from;
  let meta = Robust.Checkpoint.meta ~kind ~fields in
  let save patterns_done =
    Robust.Checkpoint.save ~path:checkpoint ~meta
      ~payload:(payload_of ~patterns_done first_detection)
  in
  let pos = ref resumed_from in
  let segments = ref 0 in
  if resumed_from = 0 then save 0;
  while !pos < np && not (Robust.Cancel.stop_requested cancel) do
    let len = min every (np - !pos) in
    ignore
      (Coverage.extend ~engine c faults ~first_detection ~offset:!pos
         (Array.sub patterns !pos len));
    pos := !pos + len;
    incr segments;
    save !pos;
    (* The crash drill kills here: state for [0, pos) is durable. *)
    Robust.Inject.hit segment_failpoint
  done;
  Obs.Trace.add_int "segments" !segments;
  if Obs.Metrics.enabled () then
    Obs.Metrics.incr ~by:(float_of_int !segments) "fsim.restart.segments";
  { profile = { Coverage.universe_size = nf; pattern_count = np;
                first_detection };
    patterns_done = !pos;
    resumed_from;
    completed = !pos >= np }
