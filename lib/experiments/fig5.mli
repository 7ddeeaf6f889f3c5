(** Fig. 5 — determination of n0: the P(f) family (Eq. 9, n0 = 1..12)
    overlaid with experimental cumulative-fail points.

    Two data sources are overlaid, exactly mirroring the paper:
    the paper's own Table 1 measurements (digitized in
    {!Paper_data.table1}), and the reproduction's simulated wafer lot
    from a {!Pipeline.run}. *)

val family : yield_:float -> Report.Series.t list
(** P(f) curves for each n0 in the family. *)

val paper_points : unit -> Report.Series.t
(** The paper's ten Table-1 points. *)

val simulated_rows : Pipeline.run -> Tester.Wafer_test.row list
(** The simulated lot's checkpoints at doubling pattern prefixes
    (coverage-deduplicated), as {!render} plots them. *)

val simulated_estimate_points : Pipeline.run -> Quality.Estimate.point list
(** The same checkpoints in estimator form. *)

val fit_paper : unit -> float * float
(** (n0, residual) fitted to the paper's Table 1 at y = 0.07; lands on
    ≈ 8, the paper's visually chosen value. *)

val fit_simulated : Pipeline.run -> float * float
(** (n0, residual) fitted to the simulated lot at its empirical yield. *)

val render : ?run:Pipeline.run -> unit -> string
(** Plot plus the estimate summary; with [run] absent only the paper
    overlay is shown (no simulation cost). *)
