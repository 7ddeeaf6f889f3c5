(** Structural equivalence fault collapsing.

    Two faults are equivalent when every test detecting one detects the
    other; simulating one representative per equivalence class is then
    enough.  The classical local rules implemented here:

    - AND: any input sa0 ≡ output sa0; NAND: input sa0 ≡ output sa1;
      OR: any input sa1 ≡ output sa1; NOR: input sa1 ≡ output sa0;
      BUF/NOT: both input faults map through to the output.
    - An input pin whose driver has fanout 1 is the same electrical line
      as the driver's stem, so branch faults merge with stem faults.

    Equivalences compose transitively; the implementation is a
    union-find over the universe positions, with every table an int
    array indexed by the dense fault id ({!Fault.id}). *)

type t

val equivalence : Circuit.Netlist.t -> Fault.t array -> t
(** Compute equivalence classes of the given universe.  A rule whose
    other side the universe leaves out (e.g. {!Universe.checkpoint})
    does not apply.  Raises [Invalid_argument] as {!Fault.check} does
    for a universe fault that is not a line of the circuit. *)

val representatives : t -> Fault.t array
(** One canonical fault per class (the first member in universe order). *)

val class_count : t -> int

val class_of : t -> Fault.t -> int
(** Class index of a fault.  Raises [Not_found] for a fault outside the
    circuit or the universe that was collapsed. *)

val class_members : t -> int -> Fault.t list
(** All faults of one class. *)

val collapse_ratio : t -> float
(** |classes| / |universe|; typically 0.5–0.7 for random logic. *)

val dominance : Circuit.Netlist.t -> t -> Fault.t array
(** Dominance collapsing on top of the equivalence classes: for every
    gate with a controlling value, the output fault produced by an
    input at its controlling value complemented — out/sa1 for AND,
    out/sa0 for NAND and OR, out/sa1 for NOR — is detected by {e any}
    test for one of the gate's corresponding input faults, so its whole
    equivalence class is dropped.  Returns the representatives of the
    remaining classes.

    Valid for fault {e detection} only (never diagnosis), and — as in
    the textbooks — exact only for irredundant circuits: if every
    dominator of a dropped fault is redundant, a test set complete for
    the collapsed set may miss it.  Property-tested on irredundant
    circuits: a pattern set detecting all dominance representatives
    detects every detectable fault of the full universe. *)

val dominance_drops : Circuit.Netlist.t -> t -> (Fault.t * Fault.t list) list
(** The evidence behind [dominance]: every class representative it
    drops, paired with the gate-input faults that dominate it (any test
    for one of those inputs detects the dropped fault).  Property tests
    check exactly this pairing pattern-by-pattern. *)
