(** Incremental SSTA: cone-limited re-timing for the optimizer inner loop.

    A persistent timing view of one design — canonical gate delays,
    arrivals, the backward (required-time) sweep, per-gate worst-path
    mean/sigma and the circuit-delay yield — kept consistent under
    single-gate Vth/size moves without re-running {!Ssta.analyze}.

    {2 State}

    Gate delays, arrivals, required times and the circuit delay live in
    {!Arena} slots.  {!create} and {!rebuild} run {!Ssta}'s level sweeps
    straight into them; {!sync} recomputes a level's gates with the same
    kernels ({!Ssta.forward_batch} / {!Ssta.backward_batch}: four gates'
    folds at a time, the words of {!Ssta.forward_gate} /
    {!Ssta.bwd_gate}) into a staging buffer one level wide, then copies
    a slot only when a word changed.
    {!arrival}, {!required} and {!circuit_delay} materialize a
    {!Canonical.t} only when read.  A re-timing step allocates nothing
    per recomputed gate.

    {2 Algorithm}

    {!update_gate} re-derives the canonical delay of the touched gate and
    its fanins (a size move changes the load its drivers see) and marks
    them pending — nothing else.  {!sync} then repairs arrivals in one
    topological pass over the union of the pending gates' transitive
    fanout cones, so a batch of moves pays for its merged dirty cone once
    rather than one cone walk per move.  A gate whose recomputed arrival
    is {e bit-identical} to its stored value terminates propagation below
    it (the exact-equality cutoff).  The backward view, the [path_mu] /
    [path_sigma] arrays and the yield are repaired in the same {!sync},
    again only inside the dirty cone.

    {2 Bit-identity invariant}

    Every recomputation runs the kernels of {!Ssta.analyze} /
    {!Ssta.backward} on inputs that are themselves bit-identical to a
    from-scratch analysis, so after every {!sync} the whole state equals
    what [Ssta.analyze] + [Ssta.backward] + [Ssta.path_through] would
    produce from scratch — to the last IEEE bit.  {!audit} checks exactly
    that; optimizers driven by this engine therefore make the same
    decisions, in the same order, as ones doing full refreshes. *)

type t

val create :
  ?memo:Sl_tech.Memo.t -> ?jobs:int -> ?par_threshold:int ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> tmax:float -> t
(** Full analysis of the design as-is (the design is referenced, not
    copied).  [tmax] fixes the constraint at which [yield] is evaluated.

    [?jobs] (default 1) parallelizes the level batches of every rebuild
    and {!sync} scan across domains; a batch narrower than
    [?par_threshold] (default {!Ssta.default_par_threshold}) runs inline.
    The repaired state is bit-identical for every [jobs] value: within a
    level each gate reads only slots finalized by earlier levels and
    writes only its own, and the commit order is fixed.
    @raise Invalid_argument if [jobs] < 1. *)

val design : t -> Sl_tech.Design.t

val update_gate : t -> int -> unit
(** Call after mutating gate [id]'s threshold or size in the design.
    Re-derives the touched delays and marks their cones dirty; all
    propagation (arrivals, backward, paths, yield) is deferred to
    {!sync}. *)

val sync : ?paths:bool -> t -> unit
(** Repair arrivals, the backward view, [path_mu]/[path_sigma] and the
    yield for the dirty cone accumulated since the last sync.  Cheap when
    nothing is dirty.  All read accessors are valid only as of the last
    sync (or build/rebuild).

    [~paths:false] repairs only what the yield needs — arrivals and the
    circuit delay — and leaves the backward/path repair queued for the
    next full sync.  Trial-move loops that only test the yield skip the
    whole upstream (fanin-cone) half of the work this way; [yield] and
    [circuit_delay] are exact either way, while [required] / [path_mu] /
    [path_sigma] stay as of the last full sync. *)

val rebuild : t -> unit
(** From-scratch recomputation (used after bulk design restores, where a
    dirty cone would cover everything).
    @raise Invalid_argument while a checkpoint is active. *)

val yield : t -> float
(** P(circuit delay ≤ tmax) as of the last {!sync} (or build). *)

val circuit_delay : t -> Canonical.t
val arrival : t -> int -> Canonical.t
val required : t -> int -> Canonical.t
(** [S_g] of the backward view, valid as of the last {!sync}. *)

val arrival_slots : t -> Arena.t
(** The live arrival slots, updated in place by {!sync} — for readers
    that fold arrivals without materializing them; must not be
    written. *)

val circuit_delay_slot : t -> Arena.t
(** The live one-slot circuit delay, same contract as {!arrival_slots}. *)

val path_mu : t -> float array
val path_sigma : t -> float array
(** Live per-gate worst-path mean/sigma arrays, updated in place by
    {!sync} — callers may hold on to them but must not write. *)

(** {2 Move-batch undo}

    A checkpoint keeps an undo log of what later updates actually touch:
    the first write to each slot (delay, arrival, required time, the
    circuit delay) or path mean/sigma pair appends its old words to one
    flat buffer, and a rollback replays the buffer newest-first.  Take
    one on forward-synced state (deferred backward/path dirt is
    snapshotted and survives a rollback), apply/sync trial moves, then
    either {!commit} (keep, drop the log) or {!rollback} (restore the
    timing view; the caller must restore the design assignment itself
    first).  One checkpoint may be active at a time. *)

type checkpoint

val checkpoint : t -> checkpoint
(** @raise Invalid_argument on unsynced state or a second live checkpoint. *)

val commit : t -> checkpoint -> unit
val rollback : t -> checkpoint -> unit

val audit : t -> bool
(** [true] iff the entire state — delays, arrivals, backward, paths,
    circuit delay, yield — is bit-identical to a from-scratch analysis of
    the current design.  O(full SSTA); call on synced state.  Meant for
    [assert (audit t)] in debug builds. *)

type stats = {
  updates : int;         (** {!update_gate} calls *)
  syncs : int;
  rebuilds : int;
  propagated : int;      (** arrival recomputations over all syncs *)
  bwd_propagated : int;  (** required-time recomputations over all syncs *)
  cutoffs : int;         (** recomputations that came back bit-identical *)
  max_cone : int;        (** largest arrival-recompute count of any sync *)
  par_levels : int;      (** level batches executed on domains *)
  seq_levels : int;      (** level batches executed inline *)
  max_level_width : int; (** widest staged level batch seen *)
}

val stats : t -> stats
