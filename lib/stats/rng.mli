(** Deterministic pseudo-random number generation.

    The generator is splitmix64: a small, fast, high-quality 64-bit
    generator with a one-word state.  Every stochastic component of the
    library threads an explicit [t] so that experiments are reproducible
    from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] returns a fresh generator.  The default seed is a
    fixed constant so that unseeded runs are still reproducible. *)

val copy : t -> t
(** [copy rng] is an independent generator with the same current state. *)

val split : t -> t
(** [split rng] derives a statistically independent generator from [rng],
    advancing [rng].  Useful for giving sub-experiments their own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val int : t -> int -> int
(** [int rng bound] is uniform on [0, bound-1].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform on the inclusive range [lo, hi]. *)

val bool : t -> bool
(** Fair coin flip. *)

val float : t -> float -> float
(** [float rng x] is uniform on [0, x). *)

val uniform : t -> float
(** Uniform on [0, 1). *)

val uniform_pos : t -> float
(** Uniform on (0, 1]: never returns 0, safe as a [log] argument. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential rng mean] samples an exponential with the given mean. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample by the Marsaglia polar method. *)

val gamma : t -> shape:float -> scale:float -> float
(** Gamma sample by Marsaglia–Tsang squeeze (with the shape<1 boost). *)

val poisson : t -> float -> int
(** [poisson rng lambda] samples a Poisson count.  Exact for all
    finite [lambda >= 0]: Knuth multiplication below 30, Hörmann's
    transformed rejection with squeeze (PTRS) above, whose expected
    time does not grow with [lambda].  Raises [Invalid_argument] on a
    negative or non-finite mean. *)

val binomial : t -> n:int -> p:float -> int
(** [binomial rng ~n ~p] samples a binomial count by inversion of
    geometric skips, O(np) expected time. *)

val neg_binomial : t -> mean:float -> alpha:float -> int
(** Negative-binomial count via the gamma–Poisson mixture.
    [alpha] is the clustering (shape) parameter; variance is
    [mean + mean^2 / alpha].  As [alpha -> infinity] this degenerates to
    Poisson([mean]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement rng ~k ~n] draws [k] distinct indices
    uniformly from [0, n-1], in random order.  O(k) extra space. *)
