(** Checkpointable fault simulation with crash-safe resume.

    Runs any {!Coverage.engine} over the pattern set in segments of
    [every] patterns (rounded up to whole 64-pattern blocks), writing a
    {!Robust.Checkpoint} of the grading state ({!Coverage.state}) after
    each segment, so both the first-detection and the n-detection
    curves are durable.  A run killed at any instant — including mid-write —
    resumes from the last complete segment and produces a result
    bit-identical to an uninterrupted run: per-fault results do not
    depend on the other faults in the array, and block-aligned segment
    boundaries preserve the 64-bit pattern packing.

    Cancellation ([deadline], SIGINT) is honoured between segments
    only, so the on-disk checkpoint always describes a whole-segment
    prefix.  The ["fsim.restart.segment"] failpoint fires after each
    checkpoint write — the crash-recovery smoke kills there. *)

type outcome = {
  profile : Coverage.profile;
      (** First detection.  [pattern_count] is the full request; when
          [completed] is false only the first [patterns_done] patterns
          were graded. *)
  nth_profile : Coverage.profile;
      (** The [n]-th detection, as {!Coverage.profiles} views it; equal
          to [profile] at [n = 1]. *)
  patterns_done : int;
  resumed_from : int;  (** 0 on a fresh run *)
  completed : bool;
}

val run :
  ?engine:Coverage.engine ->
  ?cancel:Robust.Cancel.t ->
  ?every:int ->
  ?resume:bool ->
  ?n:int ->
  checkpoint:string ->
  seed:int ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  bool array array ->
  outcome
(** Grades with drop rule [n] (default 1).  Raises
    {!Robust.Checkpoint.Mismatch} when [resume] is set and the
    checkpoint is unreadable or was written by another computation (the
    meta header records circuit, engine family, seed and sizes, and [n]
    when [n > 1]; all must match the resuming invocation — except the
    {!Coverage.Par} domain count, which never affects results), or when
    its state is not one a run could leave after [patterns_done]
    patterns: [patterns_done] outside [\[0, patterns\]], a detection
    index at or past it, or, at [n > 1], a count outside [\[0, n\]] or
    at odds with the fault's first and n-th detection.  Raises
    [Invalid_argument] when [every < 1] or [n < 1]. *)
