(** Random and weighted-random test pattern generation.

    Random patterns detect the easy bulk of the fault universe cheaply;
    production flows (and this reproduction's ATPG driver) run them
    first and reserve deterministic search for the resistant tail. *)

val uniform : Stats.Rng.t -> Circuit.Netlist.t -> count:int -> bool array array
(** [count] patterns, each input an independent fair coin. *)

val weighted :
  Stats.Rng.t -> Circuit.Netlist.t -> weights:float array -> count:int ->
  bool array array
(** Per-input probabilities of a 1; useful for control-dominated logic
    where a uniform distribution almost never enables anything. *)

val random_walk :
  Stats.Rng.t -> Circuit.Netlist.t -> count:int -> ?flips:int -> unit ->
  bool array array
(** A "functional-style" sequence: starts from a random pattern, each
    subsequent pattern flips [flips] (default 1) randomly chosen inputs
    of its predecessor.  Consecutive patterns exercise nearly the same
    logic, so cumulative fault coverage climbs gradually — the
    fine-grained coverage axis the paper's Table 1 relies on, which
    independent random patterns (each detecting ~25 % of the universe)
    cannot provide on a combinational circuit. *)

val until_coverage :
  Stats.Rng.t ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  target:float ->
  max_patterns:int ->
  bool array array * Fsim.Coverage.profile
(** Keep appending 64-pattern random blocks until the fault coverage of
    the accumulated set reaches [target] or [max_patterns] is hit.
    Returns the final ordered pattern set and its coverage profile.
    Raises [Invalid_argument] unless [0 <= target <= 1] (so on NaN). *)
