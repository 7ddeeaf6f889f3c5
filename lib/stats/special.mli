(** Special functions used by the statistical model.

    Everything is implemented from scratch on top of [Stdlib] floats:
    log-gamma (Lanczos), log-factorials, log-binomials, the regularized
    incomplete gamma and beta functions, and the error function.  Accuracy
    targets are ~1e-10 relative, far below what the reproduction needs. *)

val log_gamma : float -> float
(** [log_gamma x] is ln Γ(x) for [x > 0]. *)

val log_factorial : int -> float
(** [log_factorial n] is ln(n!).  Table-driven for small [n]. *)

val log_choose : int -> int -> float
(** [log_choose n k] is ln C(n, k); [neg_infinity] when [k] is outside
    [0, n]. *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma P(a, x). *)

val gamma_q : float -> float -> float
(** [gamma_q a x] is the regularized upper incomplete gamma Q(a, x)
    = 1 - P(a, x). *)

val erf : float -> float
(** Error function. *)

val beta_inc : float -> float -> float -> float
(** [beta_inc a b x] is the regularized incomplete beta I_x(a, b),
    computed with the Lentz continued fraction. *)

val log_sum_exp : float array -> float
(** Numerically stable ln Σ exp(x_i). *)
