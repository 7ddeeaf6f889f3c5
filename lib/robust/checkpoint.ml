exception Mismatch of string

(* Crash safety: the checkpoint is written to [path ^ ".tmp"], fsynced,
   closed, and renamed over [path].  rename(2) within one directory is
   atomic on POSIX, so a reader (including a resuming run after a kill
   anywhere in this function) sees either the previous complete
   checkpoint or the new complete one, never a torn file. *)
let save ~path ~meta ~payload =
  Inject.hit "checkpoint.save";
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (Report.Json.to_string meta);
     output_char oc '\n';
     List.iter
       (fun line ->
         output_string oc (Report.Json.to_string line);
         output_char oc '\n')
       payload;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if Obs.Metrics.enabled () then Obs.Metrics.incr "robust.checkpoint_writes"

let load ~path =
  match
    In_channel.with_open_text path (fun ic ->
        let rec lines lineno acc =
          match In_channel.input_line ic with
          | None -> Ok (List.rev acc)
          | Some line when String.trim line = "" -> lines (lineno + 1) acc
          | Some line ->
            (match Report.Json.parse line with
            | Ok json -> lines (lineno + 1) (json :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
        in
        lines 1 [])
  with
  | Ok [] -> Error "empty checkpoint file"
  | Ok (meta :: payload) -> Ok (meta, payload)
  | Error _ as e -> e
  | exception Sys_error msg -> Error msg

(* ---- meta headers --------------------------------------------------- *)

let magic = "lsiq-ckpt"

let meta ~kind ~fields =
  Report.Json.Obj
    (("magic", Report.Json.String magic)
    :: ("kind", Report.Json.String kind)
    :: fields)

let field name = function
  | Report.Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* A resumed run must be the same computation as the one that wrote the
   checkpoint — same circuit, engine, seed, sizes — or "bit-identical"
   means nothing.  Every identity field is compared structurally and a
   mismatch names the offending key. *)
let validate ~kind ~expect json =
  let check (key, want) =
    match field key json with
    | Some got when got = want -> Ok ()
    | Some got ->
      Error
        (Printf.sprintf "checkpoint %s mismatch: file has %s, run has %s" key
           (Report.Json.to_string got)
           (Report.Json.to_string want))
    | None -> Error (Printf.sprintf "checkpoint is missing field %S" key)
  in
  match check ("magic", Report.Json.String magic) with
  | Error _ -> Error "not a lsiq checkpoint file (bad magic)"
  | Ok () ->
    (match check ("kind", Report.Json.String kind) with
    | Error _ ->
      Error
        (Printf.sprintf "checkpoint kind mismatch: expected %S, file has %s"
           kind
           (match field "kind" json with
           | Some j -> Report.Json.to_string j
           | None -> "none"))
    | Ok () ->
      let rec all = function
        | [] -> Ok ()
        | kv :: rest -> (match check kv with Ok () -> all rest | Error _ as e -> e)
      in
      all expect)

(* ---- resume --------------------------------------------------------- *)

let resume ~path ~kind ~expect decode =
  let fail msg = raise (Mismatch msg) in
  match load ~path with
  | Error msg -> fail (Printf.sprintf "cannot resume: %s" msg)
  | Ok (file_meta, payload) ->
    (match validate ~kind ~expect file_meta with
    | Error msg -> fail msg
    | Ok () ->
      (match payload with
      | [ Report.Json.Obj state ] ->
        (match decode state with Ok v -> v | Error msg -> fail msg)
      | _ -> fail "checkpoint payload must be exactly one state line"))

let detections_to_json detections =
  Report.Json.List
    (Array.to_list
       (Array.map
          (fun d -> Report.Json.Int (Option.value ~default:(-1) d))
          detections))

let detections_of_json ~n ~bound = function
  | Report.Json.List l when List.length l = n ->
    let detections = Array.make n None in
    let rec fill i = function
      | [] -> Ok detections
      | Report.Json.Int -1 :: rest -> fill (i + 1) rest
      | Report.Json.Int v :: rest when 0 <= v && v < bound ->
        detections.(i) <- Some v;
        fill (i + 1) rest
      | Report.Json.Int v :: _ ->
        Error
          (Printf.sprintf
             "checkpoint first_detection of fault %d is %d, neither -1 nor \
              a pattern index below %d"
             i v bound)
      | _ :: _ -> Error "checkpoint first_detection has non-int entries"
    in
    fill 0 l
  | Report.Json.List _ ->
    Error "checkpoint first_detection length does not match fault count"
  | _ -> Error "checkpoint is missing first_detection"
