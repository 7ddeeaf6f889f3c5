(** Multicore PPSFP fault simulation.

    Shards the fault universe across OCaml 5 domains; every domain runs
    {!Ppsfp.grade}, the same block loop as {!Ppsfp.extend}, over its shard
    with a private kernel, against good-machine words evaluated once
    per block and shared read-only.  Sharding is deterministic and
    decided by {!Ppsfp.shards}: whole fanout-free regions are dealt
    round-robin, in increasing root order, so each region's root is
    flipped on one domain only and neighbouring regions of the circuit
    spread over every domain.  Per-fault results do not depend on the
    other faults in a shard, so the merged output is
    {e bit-identical} to {!Ppsfp.run} for every domain count.
    Malformed faults raise {!Faults.Fault.check}'s [Invalid_argument]
    before any domain is spawned. *)

val extend :
  ?cancel:Robust.Cancel.t ->
  ?domains:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> Ppsfp.state -> alive:int array ->
  offset:int -> bool array array -> int
(** {!Coverage.extend} on several domains, as {!Ppsfp.extend}.
    [domains] defaults to [Domain.recommended_domain_count ()] and is
    clamped to the number of alive faults; it must be >= 1, and one
    domain grades without spawning.  [cancel] is polled per block in
    every shard.

    Shards run supervised: a shard whose domain dies (including at the
    ["fsim.par.shard"] failpoint, which fires once per supervised
    attempt, after its first block's results are written) has the
    state of exactly the faults it owns restored to what it was before
    the attempt and is retried on a fresh domain, then recomputed
    serially in the calling domain as a deterministic fallback — the
    merged result stays bit-identical.  Retries and fallbacks are
    counted in the ["fsim.par.shard_retries"] /
    ["fsim.par.shard_fallbacks"] metrics. *)

val run_counts :
  ?cancel:Robust.Cancel.t ->
  ?domains:int ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  int array * int option array
(** Multicore n-detection grading; same contract as
    {!Serial.run_counts} (per-fault detection count saturated at [n]
    and the index of the [n]-th detecting pattern, drop-after-n
    policy), bit-identical for every domain count; at [n = 1] the
    second array is {!Ppsfp.run}'s.  Raises [Invalid_argument] when
    [n < 1] or [domains < 1]. *)
