(** Simulated-annealing cross-check (extension, not in the paper).

    A slow, assumption-free optimizer over the same solution space and the
    same statistical objective: cost = E[leak] + λ·max(0, η − yield)·E[leak₀].
    Used on small benchmarks to bound how far the greedy sensitivity
    optimizer sits from a global-search result (ablation experiment A4 and
    the [stat vs annealing] test). *)

type config = {
  tmax : float;
  eta : float;
  iterations : int;        (** total proposed moves *)
  seed : int;
}

val default_config : tmax:float -> eta:float -> config
(** 20 000 iterations, seed 1. *)

type stats = {
  accepted : int;       (** proposals accepted by the Metropolis test *)
  proposed : int;       (** real proposals evaluated — iterations whose
                            random pick was a boundary move (no legal
                            neighbour) are not counted, so
                            [accepted / proposed] is a true acceptance
                            rate *)
  final_cost : float;
  final_yield : float;
  feasible : bool;
}

val optimize : config -> Sl_tech.Design.t -> Sl_variation.Model.t -> stats
(** Mutates the design in place; keeps the best feasible solution seen.
    The temperature cools geometrically from 0.05 to 0.0005 of the
    initial cost over the run, and λ = 10. *)
