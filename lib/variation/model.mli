(** The variation model bound to one circuit.

    Each process parameter p ∈ {ΔVth, ΔL} of gate g decomposes as

    {v Δp(g) = Σ_k  c_{p,g,k} · Z_k  +  σ_rnd(p) · R_g(p) v}

    where the Z_k are shared unit normals ("principal components"): one
    die-to-die component per parameter plus one per spatial grid cell,
    mixed through the Cholesky factor of the grid-correlation matrix
    (kernel exp(−d/λ)); the R_g are per-gate independent unit normals.
    Coefficient vectors per grid cell are precomputed at build time, so
    querying a gate is an array lookup.

    PC index layout: [0] ΔVth die-to-die; [1 .. G²] ΔVth spatial;
    [G²+1] ΔL die-to-die; [G²+2 .. 2G²+1] ΔL spatial. *)

type t

val build : ?placement:Placement.t -> Spec.t -> Sl_netlist.Circuit.t -> t
(** [placement] defaults to {!Placement.by_level}; pass
    {!Placement.of_coords} / {!Placement.parse_file} output to use a real
    placement.
    @raise Invalid_argument if the spec fails {!Spec.validate}. *)

val spec : t -> Spec.t
val num_pcs : t -> int

val vth_coeffs : t -> int -> float array
(** PC coefficient vector (length [num_pcs]) of gate [id]'s ΔVth.
    The returned array is shared — do not mutate. *)

val l_coeffs : t -> int -> float array
(** Same for ΔL. *)

val num_cells : t -> int
(** Number of spatial grid cells (grid²). *)

val cell_index : t -> int -> int
(** Grid cell containing gate [id]; gates in one cell share their PC
    coefficient vectors exactly. *)

val vth_rnd_sigma : t -> float
(** σ of the gate-independent ΔVth component. *)

val l_rnd_sigma : t -> float

val restrict : t -> int array -> t
(** [restrict t ids] is the model viewed through a sub-circuit whose
    local gate [i] is global gate [ids.(i)]: per-gate lookups re-index,
    everything else (spec, PC count, σ's) is unchanged.  Coefficient
    rows are shared with the parent, so a restricted gate's coefficients
    are bitwise the parent's — correlation across different restrictions
    of the same model is preserved by construction (this is the
    variation-aware boundary macromodel guarantee). *)

val correlation : t -> int -> int -> [ `Vth | `L ] -> float
(** Correlation between the given parameter of two gates (diagnostics and
    tests; the analyses use the coefficient vectors directly). *)

(** One die drawn from the model: the shared PC vector and the fully
    materialized per-gate parameter deviations.  A [t] doubles as the
    die buffer of a Monte-Carlo evaluator: {!fill} overwrites it in
    place, so a sweep allocates its buffers once per domain, not once per
    die. *)
module Sample : sig
  type model := t

  type t = {
    z : float array;     (** PC values, length [num_pcs] *)
    dvth : float array;  (** per-gate ΔVth, V *)
    dl : float array;    (** per-gate ΔL/L *)
  }

  type scratch
  (** {!fill}'s buffers: the per-cell projections, one pair of floats per
      grid cell, and the die's 2n per-gate deviates; like a [t], built
      once per evaluator and reused. *)

  val zero : model -> t
  (** The nominal die (all deviations zero); also a fresh buffer for
      {!fill}. *)

  val scratch : model -> scratch

  val fill :
    ?row:float array -> ?shift:float array ->
    model -> scratch -> Sl_util.Rng.t -> t -> unit
  (** [fill ?row ?shift m sc rng s] draws the next die into [s]: its PC
      vector [s.z] is [row] — or [num_pcs] Gaussians from [rng] when
      absent — plus [shift]; then each gate's independent components
      from [rng], ΔVth's deviate then ΔL's, in gate-id order.  Gates of
      one cell share their coefficient row (see {!cell_index}), so the PC
      projection is computed once per occupied cell into [sc] — the same
      floats a per-gate projection gives, in the same generator order.
      Every deviate comes through {!Sl_util.Rng.gaussian_fill} (into [s.z]
      and [sc]), so a die boxes no float.
      This is the one die draw: {!draw} and every Monte-Carlo evaluator
      run it.
      @raise Invalid_argument if [s] or [sc] was not built for a model of
      [m]'s PC, gate and cell counts, or [row] / [shift] is not
      [num_pcs] long. *)

  val draw : model -> Sl_util.Rng.t -> t
  (** A fresh die: {!zero}, then {!fill} with the PC vector from [rng]. *)
end
