(** Roth's 5-valued logic for deterministic test generation, coded as
    small ints.

    A value tracks the good machine and the faulty machine together:
    [d] means good 1 / faulty 0, [dbar] good 0 / faulty 1, and [x] is
    unassigned in both.  Each machine is one two-rail {!plane} — bit 0
    "can be 0", bit 1 "can be 1" — with the good plane in bits 0–1 and
    the faulty plane in bits 2–3, so a gate evaluates both machines at
    once with a few [land]/[lor]/shifts, and a stuck-at fault is
    injected by replacing the faulty plane. *)

type plane = int
(** One machine's ternary value: {!plane_0}, {!plane_1} or {!plane_x}. *)

val plane_0 : plane
(** 1: can only be 0. *)

val plane_1 : plane
(** 2: can only be 1. *)

val plane_x : plane
(** 3: unknown. *)

val plane_of_bool : bool -> plane

type t = int
(** [good lor (faulty lsl 2)]. *)

val zero : t
val one : t
val x : t
val d : t
val dbar : t

val of_bool : bool -> t
(** The same defined value on both machines. *)

val make : good:plane -> faulty:plane -> t
val good : t -> plane
val faulty : t -> plane

val with_faulty : t -> plane -> t
(** Replace the faulty plane — how a stuck-at fault is injected. *)

val has_unknown : t -> bool
(** At least one plane unknown.  Unlike the classical 5-valued
    calculus, this representation keeps values such as good=1/faulty=X;
    frontier and X-path tests must use this predicate. *)

val is_fault_effect : t -> bool
(** Good and faulty defined and different (D or Dbar). *)

val eval : Circuit.Gate.kind -> t array -> int array -> t
(** [eval kind values fanins] evaluates a gate whose pin [i] reads
    [values.(fanins.(i))], each plane independently in ternary logic.
    Raises [Invalid_argument] on [Input]. *)

val eval_with_pin :
  Circuit.Gate.kind -> t array -> int array -> pin:int -> faulty:plane -> t
(** Same, but the faulty plane of input [pin] is replaced by [faulty] —
    how a branch stuck-at is injected. *)
