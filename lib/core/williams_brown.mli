(** The Williams–Brown defect-level model (T. W. Williams and N. C.
    Brown, "Defect Level as a Function of Fault Coverage", IEEE Trans.
    Computers C-30, 1981) — published the same year as this paper and
    the formula that became the textbook standard:

    {v DL(f) = 1 - y^(1 - f) v}

    It arises from assuming every chip draws each of the [n] possible
    faults independently with equal probability, with [y = (1-p)^n];
    testing a fraction [f] of them leaves defect level [1 - y^{1-f}].

    Relationship to this paper: Williams–Brown implicitly assumes a
    defective-chip fault mean of only [-ln y / (1-y)] (≈ 2.9 at 7 %
    yield), so like Wadsack it demands near-perfect coverage for
    low-yield LSI — both sit far above the Agrawal–Seth–Agrawal
    requirement once the measured [n0] is large.  The comparison
    experiment quantifies all three side by side. *)

val defect_level : yield_:float -> float -> float
(** [defect_level ~yield_ f] = 1 - y^(1-f); the fraction of shipped
    parts that are defective after tests with coverage [f]. *)

val required_coverage : yield_:float -> defect_level:float -> float option
(** Closed-form inverse: [f = 1 - ln(1 - DL) / ln y].
    [Some 0.] when the raw yield already meets the target; [Some 1.]
    for y = 0, the formula's limit; [None] for y = 1 (never any defect
    level to fix). *)

val implied_n0 : yield_:float -> float
(** The defective-chip fault mean implied by the model's underlying
    binomial fault count: E(n | n >= 1) with n ~ Binomial(N, p) in the
    large-N limit, i.e. [-ln y / (1 - y)].  Plugging this into the
    Agrawal model reproduces Williams–Brown almost exactly — the test
    suite checks this reconciliation. *)
