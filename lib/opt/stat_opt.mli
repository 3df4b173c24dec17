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
    + every [refresh_every] accepted moves — or when the budget is
      exhausted — an exact yield re-measure checks the constraint; if it
      broke, the most recent moves are undone, newest first, until it
      holds again.

    The estimate-and-refresh structure is what makes the optimizer
    near-linear in circuit size (T5) while never terminating in an
    infeasible state. *)

include module type of struct include Opt_core.Types end

type config = {
  tmax : float;           (** delay constraint, ps *)
  eta : float;            (** timing-yield target in (0, 1), e.g. 0.95 *)
  sensitivity : sensitivity;
  allow_vth : bool;
  allow_size : bool;
  refresh_every : int;    (** accepted moves between exact re-measures *)
  partition : bool;       (** time register-boundary cones separately
                              ({!Sl_ssta.Hier}): cones re-timed
                              concurrently on [jobs] domains, stitched
                              through canonical boundary macromodels.
                              Bit-identical to one cone at every
                              re-measure — trajectories, leakage and
                              yield do not change.  A netlist that does
                              not decompose is timed as one cone *)
  audit : bool;           (** debug: every [refresh_every] batch settles,
                              [assert] that the incremental state agrees
                              bit-for-bit with a from-scratch analysis
                              (compiled out under [-noassert]) *)
  jobs : int;             (** domains for level-parallel propagation and
                              candidate ranking.  Bit-identical for every
                              value — only wall-clock changes *)
}

val default_config : tmax:float -> eta:float -> config
(** Paper metric, both knobs, re-measure every 25 moves, partition off,
    audit off.  A reduction run makes at most 25 passes. *)

val optimize :
  ?progress:(progress -> unit) -> ?engine:Opt_core.engine -> config -> Sl_tech.Design.t ->
  Sl_variation.Model.t -> stats
(** Mutates the design in place.  [progress] (default: none) is invoked
    at every exact re-measure point of a pass and after each phase; it
    must not mutate the design and has no effect on the trajectory.
    [engine] (default: built from [config]) runs on the caller's engine,
    as {!Opt_core.run} describes; the trajectory is the same.
    @raise Invalid_argument if [eta] is outside (0, 1). *)

(**/**)

(** Estimation and ranking internals exposed for unit tests. *)
module Private : sig
  val violation :
    path_mu:float array -> path_sigma:float array -> tmax:float -> int ->
    delta:float -> float

  val est_yield_cost :
    path_mu:float array -> path_sigma:float array -> tmax:float -> int ->
    delta:float -> float

  val compare_candidates : Opt_core.candidate -> Opt_core.candidate -> int
  (** The reference ranking order on candidate records. *)
end
