(** Monte-Carlo reference evaluation.

    Draws dies from the variation model and evaluates circuit delay
    (non-linear alpha-power STA, no linearization) and total leakage
    (exact exponential model) on each die.  This is the golden reference
    every statistical analysis (SSTA yield, Wilkinson leakage moments) is
    validated against in the T4/F6 experiments. *)

type result = {
  delay : float array;  (** per-die circuit delay, ps *)
  leak : float array;   (** per-die total leakage, nA *)
}

val run :
  ?sampling:[ `Naive | `Lhs ] -> ?jobs:int ->
  seed:int -> samples:int -> Sl_tech.Design.t -> Sl_variation.Model.t -> result
(** Deterministic in [seed] — and in [seed] only: the sample space is cut
    into fixed-size chunks, chunk [c] always draws from the independent
    generator [Rng.stream ~seed c] and fills its own slice of the result,
    so the [{delay; leak}] arrays are bit-identical for every [jobs]
    value (including [jobs:1]), no matter how chunks land on domains.
    [jobs] defaults to [Domain.recommended_domain_count ()]; each domain
    evaluates its dies with its own {!Eval}.

    [`Lhs] (Latin-hypercube) stratifies the shared principal components —
    one stratum per die and dimension, with independently permuted strata
    across dimensions — which cuts the variance of mean estimates markedly
    at equal sample count (the per-gate independent components stay naive;
    they average out across thousands of gates anyway).  The LHS z-table
    is precomputed once from a dedicated stream and shared read-only
    across domains.  Default [`Naive].
    @raise Invalid_argument if [samples] < 1 or [jobs] < 1. *)

type die = {
  z : float array;  (** the shared-PC vector the die was evaluated at *)
  delay : float;    (** non-linear STA circuit delay, ps *)
  leak : float;     (** exact total leakage, nA *)
}
(** One evaluated die with its PC coordinates retained — what a
    variance-reduced estimator ({!Sl_yield}) needs to compute likelihood
    ratios and control variates. *)

val chunk_size : int
(** Dies per RNG chunk (256, DESIGN.md §7).  Sequential estimators grow
    their sample in whole chunks so every die's randomness stays a pure
    function of [(seed, die index)]. *)

val run_dies :
  ?jobs:int ->
  ?z_of:(int -> float array) ->
  ?shift:float array ->
  ?leak:bool ->
  seed:int -> first:int -> count:int ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> die array
(** Per-die evaluation hook for caller-controlled PC vectors: evaluates
    dies [first, first+count) through the same chunked-parallel machinery
    as {!run} and returns them in index order.  Die [i] draws from
    [Rng.stream ~seed (i / chunk_size)]; with neither [z_of] nor [shift]
    the dies coincide bit-for-bit with {!run} [`Naive] on the same seed.

    [z_of i] supplies die [i]'s raw PC vector (e.g. a stratified row) in
    place of the stream's Gaussian draw; it must be deterministic in [i]
    for the jobs-invariance to hold.  [shift] is added to the raw PC
    vector before materialization — the mean-shift of importance
    sampling; per-gate independent components always stay unshifted and
    come from the chunk stream.  The returned [z] is the vector actually
    evaluated (shift included).  With [~leak:false] (default [true]) no
    die evaluates its leakage, and every [leak] field is [nan]: a
    caller that reads only delays skips one [exp] per gate and die.
    @raise Invalid_argument if [count] < 1, [first] is negative or not
    chunk-aligned, or a PC-vector length mismatches the model. *)

val timing_yield : result -> tmax:float -> float
(** Fraction of dies meeting the constraint.
    @raise Invalid_argument on an empty result. *)

val joint_yield : result -> tmax:float -> lmax:float -> float
(** Parametric yield with a power bin: fraction of dies meeting the
    timing constraint AND leaking at most [lmax] nA.  Delay and leakage
    are strongly anti-correlated (fast dies leak), which is exactly why
    this is lower than the product of the marginal yields.
    @raise Invalid_argument on an empty result. *)

val delay_quantile : result -> float -> float
val leak_quantile : result -> float -> float
val leak_mean : result -> float
val leak_std : result -> float
val delay_mean : result -> float
val delay_std : result -> float

val lhs_z_table :
  Sl_util.Rng.t -> samples:int -> dims:int -> float array array
(** The Latin-hypercube PC table used by [`Lhs] sampling: [samples] rows
    of [dims] stratified standard-normal deviates with independently
    permuted strata per dimension.  Exported so per-die post-processing
    ({!Abb}) can draw the same kind of population. *)

(** One domain's die evaluator: the die buffers, {!Sl_sta.Sta.Fast}
    scratch and a compiled leakage evaluator, built once and overwritten
    by every die, so a die allocates nothing that grows with the circuit.
    {!run}, {!run_dies} and {!Abb.tune} all evaluate dies
    through it.  Not shareable across domains. *)
module Eval : sig
  type t

  val create : Sl_tech.Design.t -> Sl_variation.Model.t -> t

  val die : t -> Sl_variation.Model.Sample.t
  (** The current die; {!draw} overwrites it. *)

  val draw : ?row:float array -> ?shift:float array -> t -> Sl_util.Rng.t -> unit
  (** [draw ?row ?shift t rng] overwrites {!die} with the next die, drawn
      by {!Sl_variation.Model.Sample.fill}: PC vector [row] (or [num_pcs]
      Gaussians from [rng]) plus [shift], then the per-gate components
      from [rng].
      @raise Invalid_argument if [row] or [shift] is not [num_pcs] long. *)

  val delay : t -> dvth:float array -> float
  (** Circuit delay of the current die with ΔVth [dvth] (its own:
      [(die t).dvth]). *)

  val leak : t -> dvth:float array -> float
  (** Total leakage, likewise. *)
end
