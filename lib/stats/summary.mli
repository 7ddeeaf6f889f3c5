(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased (n-1) sample variance; 0 for arrays of length < 2. *)

val minimum : float array -> float
val maximum : float array -> float

val median : float array -> float
(** Median (does not modify its argument). *)

val quantile : float array -> float -> float
(** [quantile xs q] for q in [0,1], linear interpolation between order
    statistics (type-7). *)

val correlation : float array -> float array -> float
(** Pearson correlation of two equal-length arrays. *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;  (** One cell per bin, equal widths. *)
}

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram spanning the data range. *)

val mean_int : int array -> float
(** Mean of integer data (convenience for fault counts). *)
