(** Block-based statistical static timing analysis.

    Gate delays are linearized at the nominal point into canonical forms
    over the variation model's principal components; arrival times
    propagate through the levelized DAG with exact sums and Clark maxima.
    The circuit delay is the max over primary outputs, and timing yield is
    its Gaussian-approximated CDF at the constraint. *)

type result = {
  gate_delay : Canonical.t array;  (** canonical per-gate delay; PIs are 0 *)
  arrival : Canonical.t array;     (** canonical arrival per gate *)
  circuit_delay : Canonical.t;     (** max over primary outputs *)
}

val gate_delay_canonical :
  ?memo:Sl_tech.Memo.t -> Sl_tech.Design.t -> Sl_variation.Model.t -> int -> Canonical.t
(** Linearized delay of one gate: mean = nominal delay, PC coefficients =
    ∂d/∂Vth · vth-pattern + ∂d/∂L · L-pattern, independent remainder from
    the gate's random variation components.  With [?memo], nominal delay
    and sensitivities come from the (bit-identical) memo table — the hot
    path of incremental re-timing. *)

type par_stats = {
  mutable par_levels : int;      (** level batches run on domains *)
  mutable seq_levels : int;      (** level batches run inline *)
  mutable max_level_width : int; (** widest level batch seen *)
}
(** Evidence for tuning the per-level width threshold: how the level
    schedule actually split between domain and inline execution. *)

val par_stats : unit -> par_stats
(** Fresh all-zero accumulator; pass the same one to several calls to
    aggregate. *)

val default_par_threshold : int
(** Default minimum level width for handing a level to worker domains:
    below it, the hand-off overhead of {!Sl_util.Parallel.run} exceeds
    the level's work. *)

(** {2 Gate kernels over arena slots}

    One forward and one backward gate step, run by the from-scratch
    sweeps ({!analyze}, {!backward}) and by {!Incremental}'s level
    batches alike.  Each writes slot [i] of [dst] from slots finalized by
    earlier levels and allocates nothing. *)

type scratch
(** Per-domain work space of the kernels: a Clark frame and one term
    slot for the scalar kernel, and the four lanes of a level batch.
    Never shared between domains. *)

val scratch : num_pcs:int -> scratch

val gate_delay_into :
  ?memo:Sl_tech.Memo.t -> Sl_tech.Design.t -> Sl_variation.Model.t -> Arena.t ->
  int -> int -> unit
(** [gate_delay_into d model dst i id]: slot [i] ← the linearized delay
    of gate [id] (zero for a PI), as {!gate_delay_canonical}. *)

val forward_gate :
  Sl_netlist.Circuit.t -> delay:Arena.t -> arr:Arena.t -> scratch -> dst:Arena.t ->
  int -> int -> unit
(** [forward_gate c ~delay ~arr sc ~dst i gid]: slot [i] ← the max of
    [gid]'s fanin arrivals plus its delay.  The destination may be
    [gid]'s delay slot.  Call only for a non-PI. *)

val bwd_gate :
  Sl_netlist.Circuit.t -> delay:Arena.t -> bwd:Arena.t -> scratch -> dst:Arena.t ->
  int -> int -> bool
(** [bwd_gate c ~delay ~bwd sc ~dst i gid]: slot [i] ← [S_gid], the max
    over fanouts of delay + required time, headed by zero at a PO driver.
    [false] (slot untouched) for a dead gate: no fanout, not a PO. *)

val forward_batch :
  Sl_netlist.Circuit.t -> delay:Arena.t -> arr:Arena.t -> scratch -> dst:Arena.t ->
  staged:bool -> int array -> int -> int -> unit
(** [forward_batch c ~delay ~arr sc ~dst ~staged ids lo hi]:
    {!forward_gate} of every non-PI gate [ids.(k)], [lo] <= [k] < [hi],
    into slot [k] of [dst] if [staged], its own slot otherwise.  The
    gates must be independent (one level's).  Their folds share the
    four-lane Clark max ({!Canonical.max2_rows4}): a lane that finishes
    its gate's fold takes the next gate, a gate with under two fanins
    and the last three folds run the scalar kernel, and every slot gets
    the per-gate kernel's words. *)

val backward_batch :
  Sl_netlist.Circuit.t -> delay:Arena.t -> bwd:Arena.t -> scratch -> dst:Arena.t ->
  staged:bool -> live:bool array -> int array -> int -> int -> unit
(** [backward_batch c ~delay ~bwd sc ~dst ~staged ~live ids lo hi]:
    {!bwd_gate} of every gate [ids.(k)], [lo] <= [k] < [hi], on four
    lanes as {!forward_batch}; when [staged] it writes slot [k] of [dst]
    and [live.(k)] ← its liveness flag, otherwise the gate's own slot
    ([live] unread). *)

val circuit_delay_into :
  Sl_netlist.Circuit.t -> arr:Arena.t -> scratch -> dst:Arena.t -> int -> unit
(** Slot [i] ← the max over primary outputs, folded in output order. *)

val path_into :
  arr:Arena.t -> bwd:Arena.t -> int -> mu:float array -> sigma:float array -> unit
(** [path_into ~arr ~bwd id ~mu ~sigma]: [mu.(id)] and [sigma.(id)] ←
    mean and sigma of [A_id + S_id], as {!path_through}, in one pass
    that stores no row ({!Canonical.add_moments_rows}). *)

val forward_into :
  ?memo:Sl_tech.Memo.t -> ?jobs:int -> ?par_threshold:int -> ?stats:par_stats ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> delay:Arena.t -> arr:Arena.t -> unit
(** The forward sweep of {!analyze} into caller-owned slots: every gate
    delay, then every arrival level by level.  PI arrivals are left as
    they are (zero in a fresh arena).  Counted and traced as one forward
    analysis. *)

val backward_into :
  ?jobs:int -> ?par_threshold:int -> ?stats:par_stats -> Sl_netlist.Circuit.t ->
  delay:Arena.t -> bwd:Arena.t -> unit
(** The sweep of {!backward} into caller-owned slots; a dead gate's slot
    is left as it is.  Counted and traced as one backward sweep. *)

val path_into4 :
  arr:Arena.t -> bwd:Arena.t -> int -> int -> int -> int -> mu:float array ->
  sigma:float array -> unit
(** {!path_into} of four gates on four lanes
    ({!Canonical.add_moments_rows4}): the same words. *)

val paths_into :
  arr:Arena.t -> bwd:Arena.t -> int -> int -> mu:float array -> sigma:float array -> unit
(** [paths_into ~arr ~bwd lo hi ~mu ~sigma]: {!path_into} of every id in
    [\[lo, hi)], four at a time and the last under four one by one. *)

(** {2 From-scratch analysis} *)

val analyze :
  ?memo:Sl_tech.Memo.t -> ?jobs:int -> ?par_threshold:int -> ?stats:par_stats ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> result
(** Levelized forward propagation through a flat {!Arena}.  With
    [?jobs > 1], each level wider than [?par_threshold] is split into
    chunks executed by concurrent domains; a gate's fanins all sit at
    strictly lower levels, so every worker reads only finalized slots
    and writes only its own — results are bit-identical
    ([Int64.bits_of_float]) to the sequential sweep for every [jobs]
    value, by construction.  Gate-delay linearization is parallelized
    only when [?memo] is absent or frozen (an unfrozen memo fills its
    table lazily and is not domain-safe). *)

val timing_yield : result -> tmax:float -> float
(** P(circuit delay ≤ tmax). *)

val tmax_for_yield : result -> p:float -> float
(** Smallest constraint achieving yield [p] (the circuit-delay quantile). *)

val backward :
  ?jobs:int -> ?par_threshold:int -> ?stats:par_stats ->
  Sl_netlist.Circuit.t -> result -> Canonical.t array
(** [S_g]: canonical form of the longest delay from gate [g]'s output to
    any primary output (excluding [g]'s own delay); 0 at PO drivers.
    Reverse levelized sweep with Clark maxima; same level-parallel
    schedule and bit-identity guarantee as {!analyze} (fanouts sit at
    strictly higher levels). *)

val path_through : result -> backward:Canonical.t array -> int -> Canonical.t
(** [A_g + S_g] — the delay distribution of the worst path through gate
    [g]. *)

val node_criticality :
  result -> backward:Canonical.t array -> tmax:float -> int -> float
(** P(worst path through the gate exceeds [tmax]) — the yield-loss
    exposure used to rank optimizer moves. *)

val statistical_slack :
  result -> backward:Canonical.t array -> eta:float -> tmax:float -> int -> float
(** [tmax − quantile(A_g + S_g, eta)]: the margin gate [g] has before the
    η-quantile of its worst path hits the constraint.  Positive slack
    means the gate can be slowed with high confidence. *)
