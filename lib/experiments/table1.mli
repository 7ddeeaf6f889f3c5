(** Table 1 — result of chip test: cumulative chips failed versus fault
    coverage, paper data side by side with the simulated lot. *)

type estimates = {
  fit_n0 : float;
  slope_nav : float;
  slope_n0 : float;
  true_n0 : float;
  empirical_yield : float;
}

val estimates : Pipeline.run -> estimates

val render : ?run:Pipeline.run -> unit -> string
