(** Static signal probabilities under uniform random patterns
    (Parker–McCluskey 1975 exact rules on fanout-free regions,
    Savir–Ditlow–Bargh cutting-algorithm bounds at reconvergent
    fanout).

    Every primary input is an independent fair coin.  On a fanout-free
    cone the probability of each line is an exact product/parity
    expression of its fanin probabilities.  Reconvergent fanout breaks
    the independence those rules assume, so the classic fix applies:
    {e cut} every fanout branch of every reconvergent stem, treat the
    cut lines as free inputs with probability anywhere in [0,1], and
    propagate {e intervals} [\[p_lo, p_hi\]] through the same gate
    rules.  After cutting all branches of reconvergent stems, every
    remaining cone is a tree over variables whose true values are
    mutually independent, which is exactly what makes the interval
    propagation sound — the true probability always lies inside the
    computed interval (the exhaustive-enumeration oracle in
    [test/test_testability.ml] checks this on every line of every
    generator circuit with <= 16 inputs).

    Cutting {e all} branches (not all-but-one) is deliberate: keeping
    one branch at the stem's own probability is only sound through
    unate logic, and this netlist vocabulary has XOR/XNOR.  The
    counterexample is [s XOR s]: true probability 0, but with one
    branch kept at 1/2 the interval degenerates to [\[1/2, 1/2\]].
    With both branches cut it is [\[0, 1\]] — loose, but sound.

    When the circuit has no reconvergent stem nothing is cut, every
    interval is a point, and the analysis is exact ({!exact}). *)

type interval = { lo : float; hi : float }
(** A closed subinterval of [0,1]; invariant [0 <= lo <= hi <= 1]. *)

val make : float -> float -> interval
(** [make lo hi] clamps both endpoints to [0,1] and swaps them if
    round-off inverted the pair. *)

val point : float -> interval
val width : interval -> float
val complement : interval -> interval
(** Bounds on [P(not A)] from bounds on [P(A)]. *)

val conj_indep : interval -> interval -> interval
(** Bounds on [P(A and B)] when the events are {e independent}:
    endpoint products.  Only sound given real independence — use
    {!Support.disjoint} on true cone supports to establish it. *)

val conj_frechet : interval -> interval -> interval
(** Fréchet bounds on [P(A and B)] with {e no} independence
    assumption: [\[max 0 (lo_a + lo_b - 1), min hi_a hi_b\]].
    Always sound. *)

(** Primary-input cone supports, used to prove independence: two
    deterministic functions of disjoint sets of independent primary
    inputs are independent. *)
module Support : sig
  type set
  (** Bitset over primary-input positions. *)

  val disjoint : set -> set -> bool
  val union : set -> set -> set
  val is_empty : set -> bool
end

type t

val analyze : Circuit.Netlist.t -> t
(** Descendant-bitset reconvergence detection, branch cutting, one
    forward interval sweep in topological order.  Runs under the
    ["analysis.prob.signal"] span. *)

val circuit : t -> Circuit.Netlist.t

val probability : t -> int -> interval
(** Bounds on the probability that node [id]'s stem evaluates to 1
    under a uniform random input pattern. *)

val pin_probability : t -> gate:int -> pin:int -> interval
(** Bounds on the fanout-branch line feeding [pin] of [gate].  The
    marginal of a branch equals its stem's marginal, so this is
    {!probability} of the source — {e not} the cut line's [\[0,1\]],
    which only models the loss of correlation information inside
    downstream cones. *)

val reconvergent : t -> int -> bool
(** Was node [id] a reconvergent stem (two fanout branches whose cones
    share a node), i.e. were its branches cut? *)

val cut_count : t -> int
(** Number of reconvergent stems (every branch of each was cut). *)

val exact : t -> bool
(** No reconvergent stems: every interval is a point equal to the true
    signal probability. *)

val support : t -> int -> Support.set
(** True primary-input cone support of node [id] (computed on the
    {e uncut} netlist). *)

val branches : t -> int -> (int * int) array
(** The fanout branches of node [id] as [(gate, pin)] pairs, in
    deterministic (gate, pin) order.  A gate consuming the node on two
    pins contributes two entries. *)

val empty_support : t -> Support.set
(** The all-zero support (e.g. seed for folding side-pin supports). *)
