(** Simulation-free per-fault detection probabilities under uniform
    random patterns, built on {!Signal_prob}.

    A backward sweep bounds, for every stem and every fanout branch,
    the probability of the {e observability event} — "a value change
    on this line reaches a primary output".  The event identities used
    are exact; only the probability bounds are conservative:

    - branch [(g, pin)]: [Detect = L_pin and D_g], where [L_pin] is
      local sensitization at gate [g] (all side pins at the gate's
      non-controlling value; always true for BUF/NOT/XOR/XNOR) and
      [D_g] is the stem observability event of [g];
    - single-branch stem: the branch event itself;
    - multi-branch {e non-reconvergent} stem: exactly the union of the
      branch events (every propagation path stays inside one branch
      cone — the cones never meet);
    - reconvergent stem: multiple paths can interact (even cancel, so
      neither [max] of branch lower bounds nor the sum of upper bounds
      is sound); the interval falls back to [\[0, hi\]] with [hi] the
      observability of the stem's immediate dominator — a difference
      confined to the stem's cone can only reach an output through
      every absolute dominator, so [D_stem] implies [D_idom].

    Conjunctions/unions of correlated events combine with Fréchet
    bounds, upgraded to exact product rules when the primary-input
    cone supports are disjoint (independence).  On fanout-free
    circuits every interval is a point equal to the true probability.

    Detection probability of a stuck-at fault is the conjunction of
    activation (the line at the value opposite the stuck value, a
    {!Signal_prob} marginal) with the line's observability event.

    From the per-fault intervals [\[d_lo, d_hi\]] follow, with no
    simulation: a predicted coverage band for [n] random patterns
    (mean over faults of [1 - (1-d)^n] at each endpoint — the exact
    expectation band for i.i.d. uniform patterns), a test-length
    calculator and the random-pattern-resistant fault list. *)

type t

val analyze : ?dominators:Dominators.t -> Signal_prob.t -> t
(** One reverse-topological sweep; [dominators] defaults to a fresh
    {!Dominators.compute}.  Runs under the
    ["analysis.prob.observability"] span. *)

val observability : t -> int -> Signal_prob.interval
(** Bounds on the probability that a value change on node [id]'s stem
    reaches a primary output ([\[1,1\]] on primary outputs, [\[0,0\]]
    on dead non-output nodes). *)

val detection : t -> Faults.Fault.t -> Signal_prob.interval
(** Bounds on the per-pattern detection probability of a stuck-at
    fault under one uniform random pattern. *)

val exact : t -> bool
(** True when the underlying {!Signal_prob} is exact {e and} every
    observability combination used an independence-backed product —
    i.e. the circuit is fanout-free; then every {!detection} interval
    is a point equal to the truth. *)

val coverage_band :
  t -> Faults.Fault.t array -> patterns:int -> Signal_prob.interval
(** Band containing the {e expected} fault coverage of [patterns]
    i.i.d. uniform random patterns over the universe. *)

val predicted_curve :
  t -> Faults.Fault.t array -> counts:int array ->
  (int * Signal_prob.interval) array
(** [(n, band)] rows, comparable with {!Fsim.Coverage.curve} and
    {!Fsim.Stafan.predicted_curve}. *)

val band :
  (Faults.Fault.t -> Signal_prob.interval) -> Faults.Fault.t array ->
  patterns:int -> Signal_prob.interval
(** The fold behind {!coverage_band}, over any per-fault detection
    interval: [band (detection t)] is {!coverage_band} [t], and
    {!Exact} passes its refined intervals. *)

val test_length :
  t -> Faults.Fault.t array -> target:float -> max_patterns:int ->
  int option * int option
(** [(guaranteed, optimistic)]: smallest pattern counts at which the
    lower (resp. upper) coverage band reaches [target], [None] when
    [max_patterns] does not suffice.  Both bands are nondecreasing in
    [n], so binary search applies. *)

val resistant :
  t -> Faults.Fault.t array -> threshold:float ->
  (Faults.Fault.t * Signal_prob.interval) list
(** Faults whose detection probability provably stays below
    [threshold] ([d_hi < threshold]) yet is not provably zero —
    random-pattern-resistant: uniform random patterns need more than
    [1/threshold] patterns apiece in expectation, but a test may
    exist.  Faults with [d_hi = 0] are untestable outright (zero
    probability under the uniform distribution over {e all} patterns
    means no detecting pattern exists) and are excluded here; lint's
    untestability proofs cover them.  Universe order is preserved. *)

val untestable :
  t -> Faults.Fault.t array -> Faults.Fault.t list
(** Faults with [d_hi = 0] — no detecting input pattern exists. *)
