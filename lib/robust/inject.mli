(** Named failpoints for fault-injection testing.

    Recovery code paths — shard supervision, checkpoint resume, journal
    finalisation — are only trustworthy if they run under test.  A
    failpoint is a named call site ([Inject.hit "fsim.par.shard"]) that
    normally does nothing; a test (or the [LSIQ_FAILPOINTS] environment
    variable, for end-to-end crash drills) arms it with a trigger, and
    the armed hit raises {!Injected}.  With nothing armed the cost is
    one atomic load, so failpoints stay in production code
    unconditionally.  Hits are counted under a mutex: shard workers hit
    failpoints from other domains. *)

exception Injected of string
(** The injected failure; carries the failpoint name. *)

type trigger =
  | At_nth of int  (** fire on exactly the n-th hit (1-based) *)
  | First_n of int  (** fire on every one of the first n hits *)
  | Probability of { p : float; seed : int }
      (** fire each hit with probability [p], from a deterministic
          per-point stream seeded by [seed] *)

val set : string -> trigger -> unit
(** Arm (or re-arm, resetting its count) the named failpoint. *)

val clear : string -> unit

val reset : unit -> unit
(** Disarm everything and zero all counts. *)

val hit : string -> unit
(** Call at the failpoint.  Raises {!Injected} when armed and the
    trigger fires; otherwise counts the hit (if armed) and returns. *)

val hits : string -> int
(** How many times the named (armed) failpoint has been hit. *)

val parse_spec : string -> ((string * trigger) list, string) result
(** Parse a failpoint spec: entries separated by [','] or [';'], each
    [name=nth:N], [name=first:N] or [name=prob:P[:SEED]]. *)

val init_from_env : unit -> (unit, string) result
(** Arm failpoints from [LSIQ_FAILPOINTS], if set.  [Error] is the
    parse failure (the CLI turns it into a usage error). *)

val env_var : string
