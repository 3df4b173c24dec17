(** Reconstruction of the paper's evaluation: one driver per table
    (T1–T5), figure (F1–F6) and ablation (A1–A4), as indexed in
    DESIGN.md §5.

    Protocol shared by every experiment unless stated otherwise: initial
    designs are all-low-Vth at 2.0× drive; D0 is the initial nominal
    delay; the headline constraint is Tmax = 1.25·D0 with yield target
    η = 0.95; the deterministic baseline enforces Tmax at the 3σ slow
    corner; every optimizer result is re-verified with Monte Carlo.

    All drivers are deterministic (fixed seeds) and pure with respect to
    global state; they return printable text rather than printing. *)

type output = {
  id : string;     (** experiment id, e.g. "T2" *)
  title : string;
  body : string;   (** rendered table or series *)
}

val t1 : ?names:string list -> unit -> output
(** Benchmark characteristics. *)

val headline :
  ?names:string list -> ?factor:float -> ?eta:float -> ?mc_samples:int ->
  ?jobs:int ->
  unit -> output * output
(** T2 (mean leakage, det vs stat at equal yield) and T3 (99th-percentile
    leakage) from one optimization run per benchmark. *)

val t4 : ?names:string list -> ?samples:int -> ?jobs:int -> unit -> output
(** SSTA / Wilkinson vs Monte-Carlo validation. *)

val t5 : ?names:string list -> unit -> output
(** Optimizer runtime scaling, with a log–log slope fit.  The
    [stat-full] column is counted, not run: the statistical optimizer's
    exact re-measure points × {!full_refresh_seconds}. *)

val full_refresh_seconds : Setup.t -> float
(** Wall-clock of one from-scratch [Ssta.analyze] + [Ssta.backward] of the
    setup's initial design (memo warm, best of three) — the unit cost of a
    full-refresh optimizer flow. *)

val t6 : ?names:string list -> unit -> output
(** Power breakdown: dynamic vs leakage, before/after optimization. *)

val f1 : ?name:string -> ?samples:int -> ?jobs:int -> unit -> output
(** Total-leakage distribution under variation vs the nominal value. *)

val f2_f4 :
  ?name:string -> ?factors:float list -> ?eta:float -> unit -> output * output
(** F2: leakage vs delay-constraint tradeoff (det vs stat); F4: fraction
    of high-Vth cells along the same sweep. *)

val f3 : ?name:string -> ?factor:float -> ?etas:float list -> unit -> output
(** Optimized leakage vs yield target. *)

val f5 : ?name:string -> ?scales:float list -> ?factor:float -> unit -> output
(** Statistical-vs-deterministic improvement as variability scales. *)

val f6 : ?name:string -> ?samples:int -> ?jobs:int -> unit -> output
(** Circuit-delay CDF: SSTA vs Monte Carlo. *)

val a1 : ?names:string list -> ?jobs:int -> unit -> output
(** Ablation: optimizing with spatial correlation modelled vs ignored. *)

val a2 : ?name:string -> unit -> output
(** Ablation: Vth-only vs sizing-only vs combined moves. *)

val a3 : ?names:string list -> unit -> output
(** Ablation: sensitivity-metric variants. *)

val a4 : ?name:string -> ?iterations:int -> unit -> output
(** Extension: greedy statistical optimizer vs simulated annealing. *)

val a5 : ?names:string list -> ?survey_samples:int -> unit -> output
(** Extension: input-vector control — standby-leakage spread over input
    vectors and the greedy IVC optimum, before and after the statistical
    optimization. *)

val a6 : ?names:string list -> ?k:int -> ?samples:int -> ?jobs:int -> unit -> output
(** Extension: block-based vs path-based SSTA vs Monte Carlo. *)

val a7 :
  ?names:string list -> ?factor:float -> ?samples:int -> unit -> output
(** Extension: post-silicon adaptive body bias on top of the design-time
    optimization. *)

val a8 : ?names:string list -> ?samples:int -> ?jobs:int -> unit -> output
(** Extension: grid-Cholesky vs quadtree spatial-correlation structure. *)

val f7 : ?name:string -> ?factor:float -> unit -> output
(** Criticality-wall figure: the distribution of per-gate yield-loss
    exposure before and after optimization. *)

val a9 : ?name:string -> ?temps:float list -> unit -> output
(** Extension: junction-temperature sweep. *)

val a10 : ?names:string list -> ?factor:float -> unit -> output
(** Extension: dual vs triple threshold libraries. *)

val a11 : ?name:string -> ?factor:float -> ?samples:int -> ?jobs:int -> unit -> output
(** Extension: power-constrained parametric yield (binning). *)

val a12 : ?names:string list -> ?factor:float -> unit -> output
(** Extension: slew-aware re-verification of optimized designs. *)

val a13 :
  ?names:string list -> ?factor:float -> ?eta:float -> ?mc_samples:int ->
  ?jobs:int ->
  unit -> output
(** Extension: deterministic guard-band (corner k) sweep vs the
    statistical flow. *)

val a14 :
  ?names:string list -> ?factor:float -> ?mc_samples:int -> ?jobs:int -> unit -> output
(** Extension: greedy vs Lagrangian-relaxation vs statistical optimizer
    comparison. *)

val a15 : ?names:string list -> ?etas:float list -> ?jobs:int -> unit -> output
(** Extension: variance-reduced yield estimation.  For each benchmark and
    yield target η, runs {!Sl_yield.Seq.estimate} with naive MC, LHS,
    importance sampling and IS+control-variates to the same CI half-width
    and reports dies used, the savings factor vs naive and the measured
    per-die variance reduction. *)

val all_timed :
  ?quick:bool -> ?jobs:int -> unit -> output list * (string * float) list
(** Like {!all}, additionally returning per-experiment wall-clock seconds
    as [(group id, seconds)] in run order.  Experiments produced by a
    shared optimization run (T2/T3, F2/F4) share one timing entry. *)

val all : ?quick:bool -> ?jobs:int -> unit -> output list
(** Every experiment in order.  [quick] shrinks suites and sample counts
    (used by tests); the default is the full reproduction.  [jobs] bounds
    the Monte-Carlo worker domains of every MC-backed experiment
    (default: all cores); it never changes any reported number. *)
