(** Fig. 1 — field reject rate versus fault coverage for yields 0.80
    and 0.20, each at n0 = 2 and n0 = 10 (semi-log, Eq. 8). *)

val series : unit -> Report.Series.t list
(** One r(f) curve per case, f swept over [0, 1]. *)

val checkpoints : unit -> (string * float * float) list
(** [(label, paper value, reproduced value)] for the four coverage
    numbers quoted in Section 4 (r ≤ 0.005 thresholds). *)

val render : unit -> string
(** Plot plus checkpoint table. *)
