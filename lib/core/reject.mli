(** Field reject rate and test-rejection probability
    (Sections 4–5, Eq. 6–10).

    All functions take the two model parameters — yield [y] and the
    defective-chip fault mean [n0] — explicitly, so the module is a set
    of pure formulas; {!Fault_distribution.t} holds the same pair when
    a packaged value is more convenient. *)

val ybg : yield_:float -> n0:float -> float -> float
(** Eq. 7 closed form: probability that a manufactured chip is bad yet
    passes tests of coverage [f]:
    [(1-f)(1-y) e^{-(n0-1) f}]. *)

val ybg_exact : ?terms:int -> total:int -> yield_:float -> n0:float -> float -> float
(** Eq. 6 evaluated by direct summation with the {e exact}
    hypergeometric escape probability (A.1) over a finite fault
    universe of [total] sites: Σ_{n>=1} q0(n)·p(n).  [terms] (default
    400) truncates the sum; the tail is negligible because p(n) decays
    factorially.  Used to validate the closed form. *)

val reject_rate : yield_:float -> n0:float -> float -> float
(** Eq. 8: field reject rate [r(f) = Ybg / (y + Ybg)] — the fraction of
    chips shipped as good that are actually defective. *)

val reject_band : yield_:float -> n0:float -> float * float -> float * float
(** [reject_band ~yield_ ~n0 (f_lo, f_hi)] maps a fault-coverage band
    to the implied field-reject-rate band [(r_lo, r_hi)].  [r(f)] is
    decreasing in [f], so [r_lo = r(f_hi)] and [r_hi = r(f_lo)].  Used
    with the static coverage bands of {!Analysis.Detectability} and
    {!Analysis.Exact} to predict a reject band before any pattern
    exists.  Raises [Invalid_argument] on an inverted band. *)

val p_reject : yield_:float -> n0:float -> float -> float
(** Eq. 9: probability that a chip fails a test program of coverage
    [f]; equals the expected cumulative fraction of chips rejected by
    the time coverage [f] has been applied. *)

val p_reject_slope : yield_:float -> n0:float -> float -> float
(** dP/df at coverage [f]. *)

val initial_slope : yield_:float -> n0:float -> float
(** Eq. 10: [P'(0) = (1-y)·n0 = nav]. *)

val yield_for : reject:float -> n0:float -> float -> float
(** Eq. 11: the yield at which coverage [f] gives field reject rate
    [reject] — the closed form behind Figs. 2–4. *)
