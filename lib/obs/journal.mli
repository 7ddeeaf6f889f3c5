(** Structured run journal: typed events appended as JSONL.

    The journal is the durable record of one [lsiq] run: a
    [run_start] header (argv, seed, circuit, host, git revision), then
    throttled [progress] events from the hot loops, optional
    [metrics_snapshot]s, and a closing [run_end] carrying the outcome
    and headline results registered along the way.

    Events go to an optional file sink (one JSON object per line,
    flushed per event so the file can be tailed) and always to a small
    in-memory ring buffer readable via {!tail} — tests can assert on
    the ring without touching the filesystem.

    Like {!Trace} and {!Metrics}, the journal is off by default and the
    disabled path of every emitter is a single atomic load. *)

type host = { hostname : string; cores : int; ocaml_version : string }

type outcome = Finished | Failed of string | Interrupted

type event =
  | Run_start of {
      time_unix : float;  (** wall-clock start, seconds since epoch *)
      argv : string list;
      seed : int option;
      circuit : string option;
      git_rev : string option;
      host : host;
    }
  | Progress of {
      t_s : float;  (** seconds since the journal was attached *)
      label : string;  (** hot-loop identity, e.g. ["fsim.ppsfp"] *)
      stage : string option;  (** pipeline stage name, if a stage tick *)
      task : int;  (** task instance id; items are monotone per task *)
      items : int;
      total : int option;
      rate : float;  (** EWMA items/s; 0 when unknown *)
      eta_s : float option;
    }
  | Metrics_snapshot of { t_s : float; metrics : Report.Json.t }
  | Run_end of {
      t_s : float;
      outcome : outcome;
      results : (string * Report.Json.t) list;  (** headlines, in order *)
    }

val set_enabled : bool -> unit
val enabled : unit -> bool

val attach : path:string -> unit
(** Open (truncate) [path] as the file sink and zero the run clock,
    ring buffer and headline set.  Does not enable emission. *)

val detach : unit -> unit
(** Flush and close the file sink, if any. *)

val reset : unit -> unit
(** Zero the run clock, ring buffer and headlines without touching the
    file sink — ring-only runs (tests) start here. *)

val emit : event -> unit
(** Append a pre-built event.  No-op when disabled. *)

val set_sink_hook : (unit -> unit) -> unit
(** Install a hook run immediately before each file-sink write.  The
    CLI points it at the ["journal.sink"] failpoint so the
    fault-injection harness can fail journal IO; an exception from the
    hook propagates out of the emitting call, but the event is already
    in the in-memory ring ({!tail} still sees it). *)

val run_start :
  argv:string array -> ?seed:int -> ?circuit:string -> unit -> unit
(** Emit [Run_start], gathering host context and a best-effort git
    revision ([LSIQ_GIT_REV] env, else [.git/HEAD] found by walking up
    from the current directory). *)

val progress :
  label:string ->
  ?stage:string ->
  task:int ->
  items:int ->
  ?total:int ->
  rate:float ->
  ?eta_s:float ->
  unit ->
  unit
(** Emit [Progress].  Throttling is the caller's job ({!Progress}
    owns the wall-clock gate); the journal records what it is given. *)

val metrics_snapshot : Report.Json.t -> unit

val headline : string -> Report.Json.t -> unit
(** Register a headline result for the eventual [Run_end]; a repeated
    key replaces the earlier value in place. *)

val run_end : outcome:outcome -> unit
(** Emit [Run_end] carrying the accumulated headlines. *)

val tail : unit -> event list
(** The most recent events (bounded ring), oldest first. *)

val event_to_json : event -> Report.Json.t

val event_of_json : Report.Json.t -> (event, string) result

val read_file : string -> (event list, string) result
(** Parse a journal file back into events; fails on the first
    malformed line, reporting its 1-based line number. *)

val render_summary : event list -> string
(** Human-readable digest of one journal: command line, host, outcome,
    headlines, per-task progress totals and an event census — what
    [lsiq report] prints. *)
