(** Section 7 — required coverage under this paper's model versus the
    Wadsack baseline, for the example chip (y = 0.07, n0 = 8). *)

type row = {
  reject : float;
  ours : float;       (** Required coverage, Eq. 8 model. *)
  wadsack : float;    (** Required coverage, r = (1-y)(1-f). *)
  williams_brown : float;
      (** Required coverage under DL = 1 - y^(1-f) — the other 1981
          defect-level model, added for context; the paper itself only
          contrasts with Wadsack. *)
  paper_ours : float option;    (** Value quoted in the paper, if any. *)
  paper_wadsack : float option;
}

val rows : ?yield_:float -> ?n0:float -> unit -> row list
(** Defaults: the paper's example (y = 0.07, n0 = 8) at
    r = 0.01, 0.005, 0.001. *)

val render : unit -> string
