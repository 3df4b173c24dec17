(** Incremental deterministic STA at a fixed process corner.

    The optimizers evaluate thousands of tentative single-gate moves; this
    evaluator re-reads one gate's assignment, refreshes the few delays the
    move can touch (the gate itself, and — because sizing changes its input
    capacitance — the gates driving it), and re-propagates arrival times.
    Updates are exact: there is no approximation relative to a from-scratch
    {!Sl_sta.Sta.analyze} at the same corner.

    Propagation is event-driven, so its cost follows the change, not the
    circuit.  The gates whose delay word changed seed a min-heap of gate
    ids; popping in increasing id is a topological order, each popped gate
    is recomputed with {!Sl_sta.Sta.gate_arrival}, and only a gate whose
    arrival word changed pushes its fanouts.  A gate is therefore
    recomputed exactly when its delay or a fanin's arrival changed, after
    every fanin that could still change, from the same fold on the same
    inputs as a full sweep — so every arrival, [dmax] and slack is
    bit-identical to {!Sl_sta.Sta.analyze}.  No per-gate cone or scratch
    array is kept; the heap is empty between updates. *)

type t

val create : ?dvth:float -> ?dl:float -> Sl_tech.Design.t -> t
(** Bind to a design at a uniform corner shift (default: nominal).
    The design is referenced, not copied. *)

val dmax : t -> float
val arrival : t -> int -> float
val delay : t -> int -> float
val slacks : t -> tmax:float -> float array
(** Fresh backward sweep ({!Sl_sta.Sta.required_times}, not cached). *)

val update_gate : t -> int -> unit
(** Call after mutating gate [id]'s threshold or size in the design. *)

val refresh : t -> unit
(** Full recomputation. *)
