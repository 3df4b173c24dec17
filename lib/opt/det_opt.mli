(** Deterministic (corner-based) dual-Vth + sizing optimizer — the
    baseline the paper compares against.

    Timing is enforced at a k-sigma slow corner: every gate simultaneously
    at [+k·σ_Vth, +k·σ_L].  This is the guard-band a variation-blind flow
    must adopt to ship with high timing yield, and it is exactly what
    makes the deterministic result leave leakage on the table: the corner
    is far more pessimistic than the true delay distribution, so fewer
    gates may take the high threshold or a smaller size.

    Structure (classical TILOS-style):
    + if the corner delay misses [tmax], upsize the most effective
      critical gates until it is met;
    + greedily move gates to high Vth / smaller sizes in order of nominal
      leakage saved per corner slack consumed, trial-applying each move
      with an exact incremental corner STA and reverting violators. *)

type config = {
  tmax : float;          (** delay constraint, ps *)
  corner_k : float;      (** guard-band: how many sigmas the corner sits out *)
  allow_vth : bool;      (** permit threshold reassignment moves *)
  allow_size : bool;     (** permit sizing moves *)
}

val default_config : tmax:float -> config
(** 3-sigma corner, both knobs.  The greedy reduction makes at most 25
    passes. *)

type stats = {
  feasible : bool;       (** corner timing met at exit *)
  vth_moves : int;       (** accepted threshold moves *)
  size_moves : int;      (** accepted sizing moves (either direction) *)
  trials : int;          (** tentative moves evaluated *)
  corner_dmax : float;   (** corner delay at exit *)
}

val optimize : config -> Sl_tech.Design.t -> Sl_variation.Spec.t -> stats
(** Mutates the design in place.  The spec supplies the corner sigmas. *)

val repair_timing :
  Sl_tech.Design.t -> Inc_sta.t -> tmax:float -> allow_size:bool -> int
(** The TILOS-style upsizing phase on its own: upsize critical-path gates
    until the evaluator's delay meets [tmax] or no move helps.  Returns
    the number of upsizes applied (the caller checks
    [Inc_sta.dmax ≤ tmax] for success).  Exposed for reuse by other
    optimizers ({!Lr_opt}). *)
