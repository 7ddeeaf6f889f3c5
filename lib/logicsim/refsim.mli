(** Reference single-pattern logic simulator.

    Deliberately simple — one boolean per node, full evaluation in
    topological order — so it can serve as the oracle that the packed
    simulator is differential-tested against. *)

val eval : Circuit.Netlist.t -> bool array -> bool array
(** [eval c inputs] returns the value of every node.  [inputs] holds one
    boolean per primary input, in [c.inputs] order. *)

val outputs : Circuit.Netlist.t -> bool array -> bool array
(** Primary-output values only, in [c.outputs] order. *)

val eval_with_overrides :
  Circuit.Netlist.t -> overrides:(int * bool) list -> bool array -> bool array
(** Like {!eval} but forcing the listed nodes to fixed values after
    their normal evaluation — the simplest possible stuck-at injection,
    used to cross-check the fault simulators.  Note an override on node
    [v] affects [v]'s fanouts but not [v]'s own reported value slot in
    the way faults on {e stems} do; input-pin (branch) faults cannot be
    expressed here, which is exactly why the real fault simulator
    exists. *)
