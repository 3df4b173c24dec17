(** Incremental deterministic STA at a fixed process corner.

    The optimizers evaluate thousands of tentative single-gate moves; this
    evaluator re-reads one gate's assignment, refreshes the few delays the
    move can touch (the gate itself, and — because sizing changes its input
    capacitance — the gates driving it), and re-propagates arrival times.
    Updates are exact: there is no approximation relative to a from-scratch
    {!Sl_sta.Sta.analyze} at the same corner.

    Propagation is event-driven, so its cost follows the change, not the
    circuit.  The gates whose delay word changed are queued in one bucket
    per circuit level, each gate at most once; the buckets drain from the
    lowest queued level up, each queued gate is recomputed with
    {!Sl_sta.Sta.gate_arrival}, and only a gate whose arrival word changed
    queues its fanouts.  Every fanin of a gate sits at a strictly lower
    level, so a gate is recomputed exactly when its delay or a fanin's
    arrival changed, after every fanin that could still change, from the
    same fold on the same inputs as a full sweep — every arrival, [dmax]
    and slack is bit-identical to {!Sl_sta.Sta.analyze}.  An update costs
    the levels it spans plus the gates it recomputes; the buckets are
    empty between updates.

    A trial move need not be propagated twice: {!update_gate} records
    every word it overwrites, and {!undo} puts them back. *)

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
(** Call after mutating gate [id]'s threshold or size in the design.
    Replaces the undo record with this update's: every delay and arrival
    word it overwrites, and the old [dmax]. *)

val undo : t -> unit
(** Revert the last {!update_gate}: restore the words it overwrote,
    newest first, and the old [dmax], then clear the record.  Call after
    restoring the design assignment that update read; the state is then
    bit-identical to what a second [update_gate] would have computed.  A
    no-op when the record is empty (after {!refresh}, or a second
    [undo]). *)

val refresh : t -> unit
(** Full recomputation; clears the undo record. *)
