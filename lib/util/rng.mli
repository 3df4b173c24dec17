(** Deterministic pseudo-random number generation.

    All stochastic components of statleak thread an explicit generator so
    that every experiment is reproducible bit-for-bit from its seed.  The
    generator is xoshiro256++ seeded through splitmix64, both implemented
    from scratch (the sealed environment has no external RNG packages and
    [Stdlib.Random] changes across compiler versions). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Equal seeds give
    equal streams.  Equivalent to [stream ~seed 0]. *)

val stream : seed:int -> int -> t
(** [stream ~seed k] is the [k]-th independent generator of [seed]'s
    stream family: each stream is seeded from its own disjoint block of
    four splitmix64 outputs, so streams never share xoshiro seed words and
    are decorrelated by construction.  [stream ~seed 0] equals
    [create seed].  This is what gives the parallel Monte-Carlo engine
    results that are independent of the worker count: chunk [k] of the
    sample space always draws from [stream ~seed k], no matter which
    domain evaluates it. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each Monte-Carlo batch its own stream. *)

val copy : t -> t
(** [copy t] duplicates the state (same future stream as [t]). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1].
    @raise Invalid_argument if [n] <= 0. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val uniform : t -> float
(** Uniform on (0, 1) — never exactly 0 or 1, safe for Φ⁻¹. *)

val gaussian : t -> float
(** Standard normal deviate (Marsaglia polar method). *)

val gaussian_fill : t -> float array -> int -> int -> unit
(** [gaussian_fill t a pos len] writes the next [len] standard normals
    into [a.(pos)] .. [a.(pos + len - 1)]: the same words as [len]
    successive {!gaussian} calls, and the same stream after them
    (pending spare included), without a boxed float per deviate.
    @raise Invalid_argument if the range is not within [a]. *)

val gaussian_vector : t -> int -> float array
(** [gaussian_vector t n] is an array of [n] i.i.d. standard normals
    ({!gaussian_fill} into a fresh array). *)

val shuffle : t -> 'a array -> unit
(** Fisher–Yates in-place shuffle. *)
