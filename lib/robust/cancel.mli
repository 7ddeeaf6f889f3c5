(** Cooperative cancellation tokens with optional deadlines.

    A token is an atomic stop flag plus an optional absolute deadline;
    the long-running engines ({!Fsim}, PODEM, the ATPG driver) poll it
    at their natural grain — a 64-pattern block, a backtrack, a fault
    target — and wind down to a well-defined partial result instead of raising.
    Tokens are domain-safe (plain atomics) and async-signal-safe to
    cancel, so one token can be shared by a deadline, a SIGINT handler
    and the shard workers of a multicore run. *)

type reason = Deadline | Requested | Signal of int

type t

val none : t
(** The never-firing token: {!stop_requested} is a single branch.  The
    default for every [?cancel] argument.  Raises [Invalid_argument]
    if passed to {!cancel}. *)

val create : ?deadline_s:float -> unit -> t
(** A fresh token; with [deadline_s] it trips itself [deadline_s]
    seconds (monotonic clock) after creation.  Raises
    [Invalid_argument] unless [deadline_s > 0] (so on NaN). *)

val cancel : ?reason:reason -> t -> unit
(** Request a stop ([reason] defaults to [Requested]).  Idempotent;
    the first reason wins.  Safe from any domain or signal handler. *)

val stop_requested : t -> bool
(** Whether work should wind down.  Lazily trips an expired deadline,
    so pure-deadline tokens need no watcher thread. *)

val reason : t -> reason option
(** Why the token fired ([None] while it has not). *)

val reason_to_string : reason -> string
