(** Statistical full-chip leakage analysis.

    Each gate's leakage is exactly lognormal (ln I is linear in the
    Gaussian variation parameters).  The chip total is the correlated sum
    over all gates; its first two moments are computed {e exactly} and a
    lognormal is matched to them (Wilkinson).

    Exactness at moment level relies on a structural property of the
    model: the log-leakage sensitivities (−1/n·vT and −k/n·vT) are
    cell-independent, so every gate in a spatial grid cell shares one PC
    coefficient vector.  Grouping by cell reduces the covariance double
    sum from O(gates²) to O(cells²) with no approximation.

    The accumulators support O(1) single-gate updates, so the optimizer
    can re-evaluate chip leakage after each tentative move.  Each gate's
    lognormal terms are cached with the threshold and size they came
    from, so {!refresh} re-derives only the gates whose assignment
    changed. *)

type t

val create : Sl_tech.Design.t -> Sl_variation.Model.t -> t
(** Capture the design's current assignment: {!refresh} with every gate
    stale.  The design is referenced, not copied: after mutating gate
    [g], call {!update_gate} or, before the next read, {!refresh}. *)

val mean : t -> float
(** E[total leakage], nA — exact under the model. *)

val variance : t -> float
(** Var[total leakage] — exact under the model. *)

val std : t -> float

val nominal : t -> float
(** Total leakage of the nominal die (no variation) — what a
    variation-blind flow would report; always below {!mean}. *)

val distribution : t -> Lognormal.t
(** Wilkinson-matched lognormal of the total. *)

val quantile : t -> float -> float
(** Percentile of the matched lognormal (e.g. 0.99 for the tail the paper
    reports). *)

val gate_mean : t -> int -> float
(** E[leakage of gate id], nA; 0 for PIs. *)

val update_gate : t -> int -> unit
(** Re-read gate [id]'s threshold/size from the design and move the
    moment accumulators by its new terms less its cached old ones, in
    O(1).  Such updates drift from a fresh {!create} in the last bits
    and do not undo exactly; the next {!refresh} re-folds every sum. *)

val refresh : t -> unit
(** Bring the moments up to the design's current assignment, whatever
    was changed with or without {!update_gate} (bulk restores
    included).  One pass of integer compares finds the gates whose
    threshold or size differs from their cached terms, and only those
    are re-derived (four [exp] each); then every cell's sums and the
    nominal total are re-folded from the cached terms in id order.
    These are {!create}'s additions in {!create}'s order over the same
    terms, so every reader returns a fresh {!create}'s words: O(gates)
    additions, with no [exp] for an unchanged gate. *)

val mean_shift_if :
  t -> int -> vth_idx:int -> size_idx:int -> float
(** Change of E[total leakage] if gate [id] were reassigned as given —
    evaluated in O(1) without mutating anything (0 for PIs); the
    optimizer's what-if query, added to a [mean t] read once per scan. *)

val quantile_if :
  t -> int -> vth_idx:int -> size_idx:int -> p:float -> float
(** Percentile of the total-leakage distribution under the same what-if:
    both moments are recomputed with the tentative reassignment (O(cells²)
    work, no mutation) and the matched lognormal is queried.  Lets the
    optimizer rank moves by tail reduction instead of mean reduction. *)
