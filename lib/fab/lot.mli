(** Manufactured chip lots.

    A lot is a batch of simulated chips, each carrying a (possibly
    empty) set of logical faults drawn from the defect process.  The
    empirical statistics exposed here are what the paper's Section 5
    characterization procedure consumes. *)

type chip = {
  chip_id : int;
  fault_indices : int array;  (** Sorted, distinct; empty = good chip. *)
}

type t = {
  chips : chip array;
  universe_size : int;
}

val manufacture :
  ?on_chip:(unit -> unit) -> Defect.t -> Stats.Rng.t -> count:int -> t
(** Fabricate [count] chips through the physical defect process.
    [on_chip] is called after each chip; an exception it raises stops
    the lot, which is how a caller cancels a long one. *)

val manufacture_ideal :
  ?on_chip:(unit -> unit) ->
  yield_:float -> n0:float -> universe_size:int ->
  Stats.Rng.t -> count:int -> t
(** Fabricate a lot that follows the paper's Eq. 1 {e exactly}: each
    chip is good with probability [yield_], otherwise carries
    [1 + Poisson(n0 - 1)] distinct faults drawn uniformly from the
    universe.  This is the idealized line used to validate the paper's
    characterization procedure; {!manufacture} is the physically
    motivated line whose clustering the ablation experiments study.
    [on_chip] is called as in {!manufacture}. *)

val size : t -> int

val good_count : t -> int

val empirical_yield : t -> float
(** Fraction of fault-free chips. *)

val defective_fault_counts : t -> int array
(** Number of faults on each defective chip. *)

val mean_faults_on_defective : t -> float
(** The lot's empirical [n0].  Raises [Invalid_argument] when the lot
    has no defective chip. *)

val mean_faults_per_chip : t -> float
(** Empirical [nav]; Eq. 2 says this should approach [(1 - y)·n0]. *)

val fault_count_histogram : t -> max_faults:int -> int array
(** [h.(n)] = number of chips with exactly [n] faults, [n] capped. *)
