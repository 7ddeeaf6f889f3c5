(** Shared observability shims for the fault-simulation engines.

    All engines report through the same span/metric vocabulary so
    traces of different engines line up: a ["fsim.<engine>"] span with
    [faults]/[patterns] counters, and ["fsim.<engine>.runs"],
    [".patterns"], [".patterns_per_sec"] and [".fault_evals"] metrics;
    the engines built on {!Ppsfp.grade} also count [".root_flips"].
    Everything is a no-op (one atomic load) while both {!Obs.Trace}
    and {!Obs.Metrics} are disabled. *)

val observing : unit -> bool
(** True when either tracing or metrics are enabled — the gate for
    bookkeeping (e.g. [List.length] of a work list) that would cost
    something even at batch granularity. *)

val engine_run :
  engine:string -> faults:int -> patterns:int -> (unit -> 'a) -> 'a
(** [engine_run ~engine ~faults ~patterns f] runs [f] inside the
    engine's span and records the run-level metrics. *)

val progress_start : engine:string -> patterns:int -> Obs.Progress.t
(** Progress task labelled ["fsim.<engine>"] over [patterns] items;
    the engines step it once per 64-pattern block (per shard for the
    Par engine, whose total is patterns times domains).  Returns the
    no-op dummy while {!Obs.Progress} is disabled. *)

val count_fault_evals : engine:string -> int -> unit
(** Record [n] fault-propagation evaluations (one fault graded against
    one pattern block, or one live fault carried through one pattern)
    onto the current span and the engine's metric counter.  Call at
    batch granularity, gated on {!observing}. *)

val count_root_flips : engine:string -> int -> unit
(** Record [n] root flips (one fanout-free-region root propagated
    through its fanout cone against one pattern block) onto the current
    span as [root_flips] and onto ["fsim.<engine>.root_flips"], the
    same way as {!count_fault_evals}. *)
