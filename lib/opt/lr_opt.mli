(** Lagrangian-relaxation optimizer (extension, not in the paper).

    The classical alternative to greedy sensitivity methods for
    power-constrained sizing (Chen–Chu–Wong lineage).  Relaxing the arrival
    constraints [a_f + d_g ≤ a_g] with multipliers λ that obey flow
    conservation makes the arrival variables drop out of the Lagrangian,

    {v L(x, λ) = Σ_g [ leak_g(x) + Λ_g · d_g(x) ]  − T·Σ λ_po v}

    where Λ_g is the total multiplier entering gate g.  The solver
    alternates: (1) coordinate descent on the per-gate discrete
    (Vth, size) choices against the current Λ — each gate accounts for its
    own delay term and the re-loading of its fanins; (2) a multiplier
    update that redistributes λ by arc criticality (backward conservation
    pass) and scales the total by the constraint violation.  A final
    repair phase (the same exact incremental-STA machinery as the greedy
    baseline) guarantees the returned design meets the corner constraint.

    Like {!Det_opt}, timing is enforced at a k-sigma corner; experiment
    A14 compares the two on equal footing. *)

type config = {
  tmax : float;        (** delay constraint, ps *)
  corner_k : float;    (** guard-band sigmas, as in {!Det_opt} *)
}

val default_config : tmax:float -> config
(** 3-sigma corner. *)

type stats = {
  feasible : bool;
  iterations : int;      (** outer iterations actually run *)
  corner_dmax : float;   (** at exit *)
  repair_moves : int;    (** upsizes needed by the final repair phase *)
}

val optimize : config -> Sl_tech.Design.t -> Sl_variation.Spec.t -> stats
(** Mutates the design in place: at most 40 multiplier updates of 2
    coordinate-descent passes each, then the exact greedy pass
    ({!Det_opt}) from the LR warm start — the standard LR cleanup. *)
