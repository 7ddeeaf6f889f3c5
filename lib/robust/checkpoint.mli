(** Crash-safe checkpoint files: JSONL, written via tmp+rename.

    A checkpoint is one meta header line (magic, kind, and the identity
    fields of the computation — circuit, engine, seed, sizes) followed
    by payload lines, all JSON objects in the journal's encoding.
    {!save} is atomic: a crash at any instant leaves either the
    previous complete checkpoint or the new one on disk, never a torn
    file.  Its two clients, {!Fsim.Restart} and ATPG (which also serves
    [simulate-lot]), own their payload schema; this module owns
    durability, identity checking and the resume protocol. *)

exception Mismatch of string
(** Raised by {!resume} when a checkpoint is unreadable, malformed, or
    its identity does not match the resuming invocation (different
    circuit, seed, engine, ...). *)

val save :
  path:string -> meta:Report.Json.t -> payload:Report.Json.t list -> unit
(** Write [meta] then [payload], one JSON value per line, atomically
    (tmp file, fsync, rename).  Hits the ["checkpoint.save"] failpoint
    before touching the filesystem.  Raises [Sys_error] on IO failure,
    leaving any previous checkpoint intact. *)

val load : path:string -> (Report.Json.t * Report.Json.t list, string) result
(** Read back [(meta, payload)]; [Error] carries a message with a
    1-based line number for malformed JSON, or the [Sys_error] text. *)

val meta : kind:string -> fields:(string * Report.Json.t) list -> Report.Json.t
(** Build a meta header: magic + [kind] + identity [fields]. *)

val validate :
  kind:string ->
  expect:(string * Report.Json.t) list ->
  Report.Json.t ->
  (unit, string) result
(** Check a loaded meta header against this invocation's identity:
    magic, [kind], then each [expect] field structurally.  The error
    message names the first mismatching key and both values. *)

val resume :
  path:string ->
  kind:string ->
  expect:(string * Report.Json.t) list ->
  ((string * Report.Json.t) list -> ('a, string) result) ->
  'a
(** The one resume protocol: {!load} [path], {!validate} its header
    against [kind] and [expect], then [decode] the fields of the single
    JSON-object state line.  Raises {!Mismatch} with the message of
    whichever step failed ([load] errors are prefixed
    ["cannot resume: "]). *)

val detections_to_json : int option array -> Report.Json.t
(** Per-fault first-detection pattern indices as a JSON int list,
    [None] stored as -1. *)

val detections_of_json :
  n:int -> bound:int -> Report.Json.t -> (int option array, string) result
(** Inverse of {!detections_to_json}; [Error] unless the value is a
    list of exactly [n] ints, each -1 or a pattern index in
    [\[0, bound)]. *)
