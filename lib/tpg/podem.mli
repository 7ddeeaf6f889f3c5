(** PODEM — path-oriented decision making (Goel, 1981).

    Deterministic test generation for a single stuck-at fault: a
    branch-and-bound search over primary-input assignments only, with
    forward implication in 5-valued logic, D-frontier tracking and an
    X-path check for early pruning.  Complete: with an unbounded
    backtrack budget, [Untestable] is a proof of redundancy. *)

type result =
  | Test of bool array
      (** Primary-input pattern (don't-cares filled with 0). *)
  | Untestable
      (** The search space is exhausted: the fault is redundant. *)
  | Aborted
      (** Backtrack limit, per-fault time budget, or the run's cancel
          token fired before a verdict. *)

type stats = { backtracks : int; implications : int }

type guidance =
  | Level_based
      (** Choose the shallowest X input — cheap, reasonable default. *)
  | Scoap_based of Scoap.t
      (** Choose by SCOAP controllability; the ablation bench measures
          the backtrack reduction this buys on resistant faults. *)

type workspace
(** The node arrays a search works in, with each node's topological
    position and the level offsets of its event queue: made once per
    circuit, owned by one caller, and not to be shared between domains.
    A search resets only the nodes of the subcircuit the previous search
    marked, before it starts, so a search cut by its backtrack limit,
    its time budget or the cancel token leaves nothing that changes the
    next one. *)

val workspace : Circuit.Netlist.t -> workspace
(** Fresh arrays for searches on the circuit. *)

val search :
  ?backtrack_limit:int ->
  ?time_budget_s:float ->
  ?cancel:Robust.Cancel.t ->
  ?guidance:guidance ->
  workspace -> Faults.Fault.t -> result * stats
(** [search ws fault] searches for a test of [fault] on the workspace's
    circuit.  Its verdict and stats do not depend on the searches run
    in [ws] before: they are {!generate}'s.  Default backtrack limit is
    1000, default guidance {!Level_based}.  [time_budget_s] bounds this
    fault's wall-clock search time and [cancel] aborts cooperatively
    (both checked at every decision and backtrack); either yields the
    typed [Aborted] verdict, never an exception.  A time budget makes
    verdicts timing-dependent — runs that must be reproducible should
    bound the search with [backtrack_limit] alone.  Raises
    [Invalid_argument] unless [time_budget_s > 0] (so on NaN).  The
    returned pattern is guaranteed (and test-suite verified) to detect
    the fault under the fault simulator; the verdicts (test found /
    untestable) do not depend on the guidance, only the search effort
    does.

    Cost model.  A search reads only the fault's subcircuit: the fanout
    cone of its site plus that cone's transitive fanin.  Resetting the
    previous subcircuit, marking this one and one sweep over it cost one
    pass over the netlist's topological order; each implication then
    re-evaluates only the subcircuit nodes downstream of the inputs
    decided, flipped or reset since the last one, and re-decides
    D-frontier membership only inside the cone.  The observing-output
    test is O(1).  A search allocates no node-sized array: its
    closures, a record per decision and the test pattern are small
    minor-heap values, and a backtrack allocates nothing.  The
    [podem.generate] trace span records [backtracks], [implications]
    and [evals], the gate evaluations its implications made, and with
    {!Obs.Metrics} enabled they are added to [atpg.podem.backtracks],
    [atpg.podem.implications] and [atpg.podem.gate_evals], and the call
    to [atpg.podem.calls]: a count of searches, not of targets, since
    the ATPG driver searches a target a second time when its first
    search aborts and its SAT proof runs out of conflicts, so in a run
    it is the targets searched plus the proofs that ran out.  An input
    outside the subcircuit is never decided, so it reads 0 in the
    test. *)

val generate :
  ?backtrack_limit:int ->
  ?time_budget_s:float ->
  ?cancel:Robust.Cancel.t ->
  ?guidance:guidance ->
  Circuit.Netlist.t -> Faults.Fault.t -> result * stats
(** [generate c fault] is {!search} through a fresh {!workspace} of
    [c]: it allocates the workspace's node arrays, so a caller that
    searches many faults of one circuit makes one workspace and calls
    {!search}. *)

val outside : int
val fanin_side : int
val in_cone : int
(** Where a node sits relative to a fault: outside the subcircuit its
    search reads, in the transitive fanin of the site's fanout cone, or
    in that cone. *)

val mark_subcircuit :
  Circuit.Netlist.t -> site:int -> int array -> int array -> int
(** [mark_subcircuit c ~site region nodes] marks the subcircuit a
    search for a fault at [site] reads, the one {!generate} and
    {!Atpg.prove} read: [region.(id)] becomes [in_cone] or
    [fanin_side] for each of its nodes, and [nodes] lists them, the
    cone first, breadth first.  Returns how many there are.  It walks
    the subcircuit only, so [region] must hold [outside] for every node
    on entry, and both arrays need a slot per node. *)
