(** Sequential (error-controlled) estimation driver.

    Grows the sample in batches of whole 256-die RNG chunks — the
    chunk/stream scheme of DESIGN.md §7 — so die [i]'s randomness is a
    pure function of [(seed, i)] and every reduction folds the returned
    die arrays in index order: the estimate is bit-identical for every
    [jobs] value.  After each batch a CLT confidence interval is formed
    from the method's streaming moments; sampling stops as soon as its
    half-width reaches the target (or the sample cap is hit). *)

type method_ =
  | Naive   (** plain Monte Carlo *)
  | Lhs     (** Latin-hypercube replicates: each batch is one independent
                LHS design; the CI comes from the spread of the
                per-batch means (strata within a batch are dependent, so
                per-die CLT moments would be wrong) — stopping needs at
                least four replicates, below that the spread estimate is
                degenerate *)
  | Is      (** mean-shifted importance sampling ({!Is}) *)
  | Cv      (** control variate from the linearized SSTA delay ({!Cv}) *)
  | Is_cv   (** importance sampling with the weighted control variate *)

type quantity =
  | Yield      (** P(circuit delay ≤ tmax) *)
  | Leak_mean  (** E[total leakage], nA ([tmax] is ignored) *)

val method_of_string : string -> method_ option
(** Parses "naive" | "lhs" | "is" | "cv" | "is+cv" (case-insensitive). *)

val method_to_string : method_ -> string

val min_samples : ?batch_chunks:int -> method_ -> int
(** The least [max_samples] {!estimate} accepts: two whole batches of
    [batch_chunks · 256] dies (default 4 chunks) for [Lhs], whose CI
    comes from the spread of batch means; 1 otherwise. *)

val estimate :
  ?ci:float ->            (* CI level, default 0.95 *)
  ?jobs:int ->            (* MC worker domains; never changes a number *)
  ?method_:method_ ->     (* default Is_cv *)
  ?quantity:quantity ->   (* default Yield *)
  ?batch_chunks:int ->    (* 256-die chunks per batch, default 4 *)
  ?max_samples:int ->     (* sample cap, default 1_000_000 *)
  ?progress:(samples:int -> value:float -> halfwidth:float -> unit) ->
  (* called after every batch with the running estimate (oriented as the
     requested quantity) and current CI half-width — the serve daemon's
     streaming hook; never changes a number *)
  ?circuit_delay:Sl_ssta.Canonical.t ->
  (* the circuit-delay form behind the IS shift and the CV control, from
     a caller that already holds it (a synced timing engine); must equal
     [(Ssta.analyze d model).circuit_delay].  Omitted, [Is], [Cv] and
     [Is_cv] run that analysis; [Naive] and [Lhs] never read it *)
  target_halfwidth:float ->
  seed:int -> tmax:float ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> Estimate.t
(** [target_halfwidth:0.] disables the stopping rule and runs exactly to
    [max_samples] (the fixed-budget mode A15 uses to compare variance).
    The estimator never stops on a zero standard error (e.g. no failure
    observed yet in a high-yield tail) before the cap, so a too-loose
    target cannot return a degenerate interval.
    [Lhs] runs whole batches of [batch_chunks · 256] dies and never
    more than [max_samples] dies in all.
    @raise Invalid_argument on a negative [target_halfwidth],
    [batch_chunks] < 1, [max_samples] below {!min_samples}, [ci] ∉ (0,1), or
    [Leak_mean] combined with an importance-sampled method (the shift
    targets the timing tail, not the leakage mean). *)
