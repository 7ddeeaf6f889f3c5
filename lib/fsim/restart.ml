(* Checkpointable fault simulation: run the pattern set in segments,
   snapshotting the grading state after each one.

   Bit-identity of a resumed run rests on two engine properties:
   per-fault results are independent of the other faults in the array
   (dropping only skips the already-dropped fault itself), so grading
   the still-alive faults is exact; and segment boundaries are
   multiples of 64, so {!Logicsim.Packed} packs the remaining patterns
   into the same words a full run would.  Cancellation is checked only
   between segments — a checkpoint therefore always describes a prefix
   of whole segments, never a torn block loop. *)

type outcome = {
  profile : Coverage.profile;
  nth_profile : Coverage.profile;
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

(* A first-detection checkpoint (n = 1) keeps the identity and payload
   it had before n-detection was checkpointed; n > 1 adds n to the
   identity and the counts and n-th detections to the payload. *)
let meta_fields ~engine ~seed ~n c faults patterns =
  [ ("circuit", Report.Json.String c.Circuit.Netlist.name);
    ("nodes", Report.Json.Int (Circuit.Netlist.num_nodes c));
    ("engine", Report.Json.String (engine_tag engine));
    ("seed", Report.Json.Int seed);
    ("faults", Report.Json.Int (Array.length faults));
    ("patterns", Report.Json.Int (Array.length patterns)) ]
  @ if n = 1 then [] else [ ("n", Report.Json.Int n) ]

let payload_of ~patterns_done (st : Coverage.state) =
  let detections = Robust.Checkpoint.detections_to_json in
  let counts = Array.to_list (Array.map (fun k -> Report.Json.Int k) st.detections) in
  let n_detect =
    if st.n = 1 then []
    else [ ("detections", Report.Json.List counts); ("nth_detection", detections st.nth) ]
  in
  [ Report.Json.Obj
      (("patterns_done", Report.Json.Int patterns_done)
      :: ("first_detection", detections st.first) :: n_detect) ]

(* What one run leaves for a fault: a count in [0, n], a first
   detection exactly when the count is positive, an n-th exactly when
   it is n, and the first no later than the n-th. *)
let consistent (st : Coverage.state) i =
  let count = st.detections.(i) in
  0 <= count && count <= st.n
  && (st.first.(i) <> None) = (count > 0)
  && (st.nth.(i) <> None) = (count = st.n)
  && match (st.first.(i), st.nth.(i)) with Some f, Some t -> f <= t | _ -> true

(* Restore the checkpoint's state into the fresh [st] and return its
   [patterns_done]: the state must describe a prefix of this run, at
   most [np] patterns graded and every detection among them. *)
let restore (st : Coverage.state) ~np state =
  let ( let* ) = Result.bind in
  let nf = Array.length st.nth in
  let field key = List.assoc_opt key state in
  match (field "patterns_done", field "first_detection") with
  | Some (Report.Json.Int patterns_done), Some first ->
    let decode = Robust.Checkpoint.detections_of_json ~n:nf ~bound:patterns_done in
    if patterns_done < 0 || patterns_done > np then
      Error
        (Printf.sprintf "checkpoint patterns_done %d is outside [0, %d]"
           patterns_done np)
    else begin
      let* first = decode first in
      Array.blit first 0 st.first 0 nf;
      if st.n = 1 then begin
        Array.iteri (fun i d -> if d <> None then st.detections.(i) <- 1) first;
        Ok patterns_done
      end
      else
        match (field "detections", field "nth_detection") with
        | Some (Report.Json.List counts), Some nth when List.length counts = nf ->
          let* nth = decode nth in
          Array.blit nth 0 st.nth 0 nf;
          (* A count that is not an int is read as -1, which no fault is
             consistent with. *)
          List.iteri
            (fun i count ->
              st.detections.(i) <-
                (match count with Report.Json.Int k -> k | _ -> -1))
            counts;
          (match List.find_opt (fun i -> not (consistent st i)) (List.init nf Fun.id) with
           | None -> Ok patterns_done
           | Some i ->
             Error
               (Printf.sprintf
                  "checkpoint fault %d: count, first and n-th detection \
                   disagree at n = %d"
                  i st.n))
        | _ -> Error "checkpoint payload is missing detections/nth_detection"
    end
  | _ -> Error "checkpoint payload is missing patterns_done/first_detection"

let run ?(engine = Coverage.Parallel) ?(cancel = Robust.Cancel.none)
    ?(every = 1024) ?(resume = false) ?(n = 1) ~checkpoint ~seed c faults
    patterns =
  if every < 1 then invalid_arg "Restart.run: every must be >= 1";
  (* Round the cadence up to whole 64-pattern blocks so every segment
     starts on a block boundary. *)
  let every = 64 * ((every + 63) / 64) in
  let np = Array.length patterns in
  let st = Coverage.state ~n (Array.length faults) in
  let fields = meta_fields ~engine ~seed ~n c faults patterns in
  let resumed_from =
    if resume then
      Robust.Checkpoint.resume ~path:checkpoint ~kind ~expect:fields
        (restore st ~np)
    else 0
  in
  Obs.Trace.with_span "fsim.restart" @@ fun () ->
  Obs.Trace.add_int "resumed_from" resumed_from;
  let meta = Robust.Checkpoint.meta ~kind ~fields in
  let save patterns_done =
    Robust.Checkpoint.save ~path:checkpoint ~meta
      ~payload:(payload_of ~patterns_done st)
  in
  let pos = ref resumed_from in
  let segments = ref 0 in
  if resumed_from = 0 then save 0;
  while !pos < np && not (Robust.Cancel.stop_requested cancel) do
    let len = min every (np - !pos) in
    ignore
      (Coverage.extend ~engine c faults st ~offset:!pos
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
  let profile, nth_profile = Coverage.profiles st ~pattern_count:np in
  { profile; nth_profile; patterns_done = !pos; resumed_from;
    completed = !pos >= np }
