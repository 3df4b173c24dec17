(** Incremental deterministic STA at a fixed process corner.

    The optimizers evaluate thousands of tentative single-gate moves; this
    evaluator re-reads one gate's assignment, refreshes the few delays the
    move can touch (the gate itself, and — because sizing changes its input
    capacitance — the gates driving it), and re-sweeps arrival times.
    Updates are exact: there is no approximation relative to a from-scratch
    {!Sl_sta.Sta.analyze} at the same corner.

    Arrival propagation is cone-limited: only the transitive fanout of
    gates whose delay word actually changed is re-walked, in topological
    order, and a gate whose recomputed arrival is bit-identical to its
    stored value terminates propagation below it.  Results are
    bit-identical to the full sweep (same fold expressions on identical
    inputs). *)

type t

val create : ?dvth:float -> ?dl:float -> Sl_tech.Design.t -> t
(** Bind to a design at a uniform corner shift (default: nominal).
    The design is referenced, not copied. *)

val dmax : t -> float
val arrival : t -> int -> float
val delay : t -> int -> float
val slacks : t -> tmax:float -> float array
(** Fresh backward sweep (not cached). *)

val update_gate : t -> int -> unit
(** Call after mutating gate [id]'s threshold or size in the design. *)

val refresh : t -> unit
(** Full recomputation. *)
