(** Statistical yield-constrained leakage optimizer — the paper's core
    contribution, with the greedy commit policy.

    minimize  E[total leakage]
    s.t.      P(circuit delay ≤ tmax) ≥ η

    over per-gate dual-Vth assignment and discrete sizing.  {!Opt_core}
    runs the optimizer — worst-path view, candidate ranking by leakage
    saved per estimated yield cost, yield repair and alternation.  This
    module decides how a pass commits the ranking:
    + candidates are accepted while a yield budget lasts (half the
      headroom yield − η), without re-measuring;
    + every 25 accepted moves — or when the budget is exhausted — an
      exact yield re-measure checks the constraint; if it broke, the
      most recent moves are undone, newest first, until it holds again.

    The estimate-and-refresh structure is what makes the optimizer
    near-linear in circuit size (T5) while never terminating in an
    infeasible state. *)

include module type of struct include Opt_core.Types end

val optimize :
  ?progress:(progress -> unit) -> ?engine:Opt_core.engine -> params -> Sl_tech.Design.t ->
  Sl_variation.Model.t -> stats
(** Mutates the design in place.  A reduction run makes at most 25
    passes.  [progress] (default: none) is invoked at every exact
    re-measure point of a pass and after each phase; it must not mutate
    the design and has no effect on the trajectory.  [engine] (default:
    built from [params]) runs on the caller's engine, as {!Opt_core.run}
    describes; the trajectory is the same.
    @raise Invalid_argument if [eta] is outside (0, 1). *)
