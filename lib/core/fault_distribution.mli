(** The paper's fault-distribution model (Section 3, Eq. 1–2).

    A manufactured chip is good with probability [y]; a defective chip
    carries [n >= 1] logical faults where [n - 1] is Poisson with mean
    [n0 - 1] — i.e. the Poisson density shifted right by one unit so
    that a defective chip always has at least one fault.  [n0] is the
    average number of faults on a {e defective} chip, the paper's new
    characterization parameter. *)

type t = {
  yield_ : float;  (** y: probability a chip is fault-free. *)
  n0 : float;      (** Mean faults on a defective chip, >= 1. *)
}

val create : yield_:float -> n0:float -> t

val p : t -> int -> float
(** Eq. 1: [p t n] is the probability of exactly [n] faults on a chip;
    [p t 0 = y]. *)

val average_faults : t -> float
(** Eq. 2: [nav = (1 - y) n0] — mean faults over {e all} chips. *)

val sample : t -> Stats.Rng.t -> int
(** Number of faults on one simulated chip (0 with probability y). *)

val total_mass : t -> upto:int -> float
(** Partial sum Σ_{n=0}^{upto} p(n); approaches 1 — the paper's remark
    that truncating the infinite sum at [N] is numerically immaterial. *)
