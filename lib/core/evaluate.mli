(** Post-optimization design evaluation: the numbers every table reports.

    All analyses run against the setup's variation model; Monte-Carlo
    verification (optional, [mc_samples] > 0) re-measures yield and
    leakage statistics with the non-linear golden models on freshly drawn
    dies. *)

type metrics = {
  nominal_delay : float;   (** deterministic dmax, ps *)
  delay_mean : float;      (** SSTA circuit-delay mean, ps *)
  delay_std : float;
  yield_ssta : float;      (** P(delay ≤ tmax) per SSTA *)
  yield_mc : float option; (** Monte-Carlo yield, when requested *)
  leak_nominal : float;    (** nominal-die total leakage, nA *)
  leak_mean : float;       (** E[total leakage], nA *)
  leak_std : float;
  leak_p95 : float;
  leak_p99 : float;
  leak_mc_mean : float option;
  leak_mc_p99 : float option;
  high_vth_frac : float;   (** fraction of cells above the lowest Vth *)
  total_width : float;     (** area proxy *)
}

val design :
  ?mc_samples:int -> ?seed:int -> ?jobs:int ->
  Setup.t -> tmax:float -> Sl_tech.Design.t -> metrics
(** [mc_samples] defaults to 0 (no MC); [seed] defaults to 1.  [jobs]
    bounds the Monte-Carlo worker domains (default: all cores); the
    metrics do not depend on it.  With MC, the model-fidelity gauges are
    set under a [circuit] label (the setup's name):
    [statleak_fidelity_yield_gap] (|SSTA − MC| timing yield) and
    [statleak_fidelity_leak_mean_rel_error] /
    [statleak_fidelity_leak_p99_rel_error] (Wilkinson vs MC, relative
    to MC). *)

val improvement : float -> float -> float
(** [improvement base opt] = percentage reduction of [opt] vs [base]. *)
