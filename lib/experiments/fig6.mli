(** Fig. 6 — the q0(n) escape-probability approximations (Appendix):
    exact (A.1), second-order (A.2) and simple [(1-f)^n] (A.3) versus
    coverage, for N = 1000 and a range of fault counts n. *)

val series : unit -> Report.Series.t list
(** Exact curves for each n, plus the A.3 approximation for the largest
    n where its error is visible. *)

type error_row = {
  n : int;
  max_abs_error_a2 : float;   (** max |A.2 - A.1| over f. *)
  max_rel_error_a3 : float;
      (** max |A.3/A.1 - 1| over the f where A.3 is within its validity
          region n << sqrt(N(1-f)/f) and A.1 > 1e-12. *)
}

val error_table : unit -> error_row list
(** The paper's qualitative claim quantified: A.2 coincides with the
    exact value even for large n; A.3's error is small but noticeable. *)

val render : unit -> string
