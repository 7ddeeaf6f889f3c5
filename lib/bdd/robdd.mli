(** Hash-consed reduced ordered binary decision diagrams.

    One manager owns every node: a node is a dense integer id into the
    manager's arrays, terminals are the fixed ids {!zero} and {!one},
    and construction goes through a {e unique table}, so two
    structurally equal (level, low, high) triples are always the same
    id.  Together with the reduction rule (never allocate a node whose
    branches coincide) this gives the canonical-form property the
    analyses rely on: {e within one manager, two nodes denote the same
    Boolean function iff they are the same integer}.  Equivalence
    checking is [=], tautology/unsatisfiability is comparison against
    a terminal.

    All connectives are derived from a single memoized [ite]
    (if-then-else) operator with the classic computed table; repeated
    subproblems cost one hash lookup.  Complement edges are
    deliberately {e not} used — they buy a constant factor at the cost
    of every traversal carrying parity state, and nothing downstream
    needs that factor.

    Allocation is bounded by a {e node budget}: when the unique table
    would grow past it, the triggering operation raises {!Exceeded}.
    The manager stays consistent (every node and cached result remains
    valid), so callers may catch the exception, fall back to interval
    analyses, and keep using the functions built so far.  Variable
    ordering is fixed per manager; callers choose it at creation
    (see {!Build.dfs_order} / {!Build.sift_order}).

    The probability view treats each variable as an independent fair
    coin: {!probability} is the weighted path count
    [p(0) = 0, p(1) = 1, p(n) = (p(low) + p(high)) / 2], which is
    {e exact} — a node skipping a level marginalizes that variable out
    with total weight 1, so no skip correction is needed.  All values
    are dyadic rationals with denominator at most [2^num_vars]; for
    [num_vars <= 53] every intermediate is exactly representable in an
    IEEE double, so results are bit-for-bit equal to exhaustive
    enumeration. *)

type t
(** A manager: unique table, computed table, node store, budget. *)

type node = int
(** A function handle, valid only with the manager that produced it. *)

exception Exceeded
(** Raised when an operation would allocate past the node budget.  The
    manager remains usable; only the triggering result is lost. *)

val default_budget : int
(** 1,000,000 nodes. *)

val create : ?budget:int -> num_vars:int -> unit -> t
(** Fresh manager for functions over [num_vars] variables, identified
    by {e level} [0 .. num_vars-1] (level 0 is tested first, i.e. is
    topmost).  [budget] (default {!default_budget}) caps the total
    node count including terminals; raises [Invalid_argument] when
    [num_vars < 0] or [budget < 2]. *)

val budget : t -> int

val size : t -> int
(** Total nodes ever allocated in this manager (terminals included) —
    the figure the budget bounds. *)

val zero : node
val one : node

val var : t -> int -> node
(** The projection function of the variable at [level]. *)

val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor : t -> node -> node -> node
val xnor : t -> node -> node -> node

val eval : t -> node -> bool array -> bool
(** [eval t n assignment] — the function's value under [assignment]
    indexed by level.  Used by tests and counterexample validation. *)

val probability : t -> node -> float
(** Probability that the function is 1 under independent fair-coin
    variables.  Exact (see the module preamble); [O(nodes)] with
    memoization per call. *)

val sat_count : t -> node -> float
(** Number of satisfying assignments over all [num_vars] variables,
    i.e. [probability * 2^num_vars]. *)

val any_sat : t -> node -> (int * bool) list option
(** One satisfying path as [(level, value)] pairs in increasing level
    order, [None] for {!zero}.  Levels absent from the list are don't
    cares.  In a reduced diagram every non-terminal reaches {!one}, so
    this never backtracks. *)

val node_count : t -> node -> int
(** Non-terminal nodes reachable from one root — the usual "BDD size"
    of a single function. *)

val shared_count : t -> node list -> int
(** Non-terminal nodes reachable from any root, counted once — the
    size of a shared multi-rooted diagram (e.g. all primary outputs). *)

val cache_lookups : t -> int
val cache_hits : t -> int

val cache_hit_rate : t -> float
(** [hits / lookups] of the ITE computed table, 0 when no lookups. *)
