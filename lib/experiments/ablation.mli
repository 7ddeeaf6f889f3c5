(** Ablation studies for the design choices DESIGN.md calls out. *)

type closed_form_row = {
  yield_ : float;
  n0 : float;
  total_sites : int;
  max_abs_error : float;  (** max over f of |Eq.7 - Eq.6 exact sum|. *)
}

val closed_form_error : unit -> closed_form_row list
(** How much the paper's Eq. 7 closed form deviates from the exact
    finite-universe sum Eq. 6 — justifies using the closed form
    everywhere else. *)

type line_model_row = {
  line : string;
  true_n0 : float;
  fitted_n0 : float;
  slope_n0 : float;
  empirical_yield : float;
}

type tester_row = {
  mode : string;
  escapes : int;
  failed_total : int;
  mean_first_fail : float;
}

type dispersion_row = {
  dispersion : float;
  required_base : float;
  required_mixed : float;
}

val griffin_dispersion : ?yield_:float -> ?n0:float -> ?reject:float -> unit ->
  dispersion_row list
(** Required coverage under the fixed-n0 model versus the gamma-mixed
    (Griffin) model as line dispersion grows. *)

type atpg_engine_row = {
  engine : string;
  total_backtracks : int;
  total_implications : int;
  aborted_faults : int;
}

val render : unit -> string
(** All studies (runs two small pipelines; a few seconds). *)
