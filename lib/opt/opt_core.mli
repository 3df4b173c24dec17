(** The statistical optimizer's shared core.

    minimize  E[total leakage]
    s.t.      P(circuit delay ≤ tmax) ≥ η

    over per-gate dual-Vth assignment and discrete sizing.  Both
    statistical optimizers run the same loop: an incremental timing
    engine gives every gate the canonical distribution of the worst path
    through it, T_g = A_g + S_g; a candidate move on gate g shifts the
    mean of T_g by its nominal delay delta δ_g, with estimated yield cost
    P(T_g + δ_g > tmax) − P(T_g > tmax); candidates are ranked by leakage
    saved per estimated cost and the yield is re-measured exactly before
    a move is kept.  They differ only in how a pass commits the ranked
    moves — the {e commit policy}: {!Stat_opt} (greedy, a blind budget
    with newest-first undo) and {!Batch_opt} (slack bands under a
    checkpoint with prefix bisection).

    The core runs everything else: candidate ranking, the yield-repair
    and alternation phases, the pass loop, the stats record, its
    publication and progress reporting.  It drives one {!engine}: the
    timing engine ({!Sl_ssta.Hier}: register cones or one cone), the
    leakage model and the memo.  A one-shot run builds its own; a
    caller that keeps a design open (a serve session) passes its own in,
    and the run builds and rebuilds nothing. *)

(** What both policies re-export, so [Stat_opt.params] and
    [Batch_opt.params], like their [stats], are the same record. *)
module Types : sig
  type sensitivity =
    | Stat_leak_per_yield
        (** Δ E[leak] per estimated yield cost — the paper's metric *)
    | Stat_leak_per_delay
        (** Δ E[leak] per ps of local delay increase: statistically blind
            timing ranking (A3 ablation) *)
    | Nominal_leak_per_yield
        (** Δ nominal leak per yield cost: variation-blind leakage ranking
            (A3 ablation) *)
    | P99_leak_per_yield
        (** Δ 99th-percentile leak per yield cost: tail-driven ranking
            (A3 ablation) *)

  type params = {
    tmax : float;               (** delay constraint, ps *)
    eta : float;                (** timing-yield target in (0, 1), e.g. 0.95 *)
    sensitivity : sensitivity;  (** move-ranking metric *)
    allow_vth : bool;           (** threshold moves *)
    allow_size : bool;          (** size moves *)
    partition : bool;           (** time register-boundary cones
                                    separately ({!Sl_ssta.Hier}): cones
                                    re-timed concurrently on [jobs]
                                    domains.  Bit-identical to one cone at
                                    every re-measure — trajectories,
                                    leakage and yield do not change.  A
                                    netlist that does not decompose is
                                    timed as one cone *)
    jobs : int;                 (** domains for level-parallel propagation
                                    and candidate ranking.  Bit-identical
                                    for every value — only wall-clock
                                    changes *)
  }
  (** The settings of one statistical optimization, for either policy. *)

  val default_config : tmax:float -> eta:float -> params
  (** Paper metric, both move kinds, one cone, one job. *)

  type stats = {
    feasible : bool;          (** η met at exit (SSTA-verified) *)
    vth_moves : int;          (** committed threshold moves *)
    size_moves : int;         (** committed size moves (both directions) *)
    trials : int;             (** candidate evaluations *)
    passes : int;             (** reduction passes, over every run *)
    refreshes : int;          (** exact re-measure points: the initial
                                  build, yield syncs, checkpoint rollbacks
                                  and rebuilds *)
    syncs : int;              (** engine syncs (yield-only and full) *)
    rollbacks : int;          (** committed-then-undone moves *)
    bands_tried : int;        (** band applications, including bisection
                                  retries (banded policy; 0 otherwise) *)
    bands_committed : int;
    bands_rolled_back : int;
    bisections : int;         (** failed bands split for retry *)
    final_yield : float;      (** SSTA yield at exit *)
    full_refreshes : int;     (** O(n) from-scratch analyses: the build and
                                  rebuilds after bulk restores *)
    incr_updates : int;       (** single-gate delay updates *)
    propagated_gates : int;   (** arrival + required-time recomputations
                                  over all syncs *)
    props_per_move : float;   (** propagations per committed move *)
    mean_cone : float;        (** arrival recomputations per update — the
                                  effective dirty-cone size *)
    max_cone : int;
    cutoffs : int;            (** recomputations cut off by exact equality *)
    time_refresh : float;     (** seconds in syncs, rollbacks and rebuilds *)
    time_candidates : float;  (** seconds ranking candidates *)
    time_total : float;       (** seconds in optimize *)
    par_levels : int;         (** level batches run on domains *)
    seq_levels : int;         (** level batches run inline *)
    max_level_width : int;    (** widest level batch seen *)
  }

  type progress = {
    stage : string;           (** "fix_yield" | "reduce" | "alternation" *)
    moves_committed : int;    (** vth + size moves currently applied *)
    cur_yield : float;        (** SSTA yield at the last exact re-measure *)
    leak_mean : float;        (** E[total leakage] now, nA *)
  }
  (** One streaming status point — what the serve daemon forwards to
      clients as progress frames. *)
end

include module type of struct include Types end

type ranking
(** The ranking scan's run state: each move's cached terms and the sort
    buffers ({!rank}). *)

type engine = {
  timing : Sl_ssta.Hier.t;
  leak : Sl_leakage.Leak_ssta.t;
  memo : Sl_tech.Memo.t;
      (** serves the ranking's what-if delays; the scan runs on [jobs]
          domains only when it is frozen *)
}
(** What a run drives, all over the run's design and model.  A run
    builds one from its [params] ([partition] and [jobs] pick the cones
    and the engine's domains), unless the caller passes its own to
    {!run}. *)

type t = {
  p : params;
  design : Sl_tech.Design.t;
  leak : Sl_leakage.Leak_ssta.t;
  memo : Sl_tech.Memo.t;
  engine : Sl_ssta.Hier.t;
  ranking : ranking;
  progress : progress -> unit;
  mutable vth_moves : int;
  mutable size_moves : int;
  mutable trials : int;
  mutable passes : int;
  mutable refreshes : int;
  mutable syncs : int;
  mutable rollbacks : int;
  mutable full_refreshes : int;
  mutable bands_tried : int;
  mutable bands_committed : int;
  mutable bands_rolled_back : int;
  mutable bisections : int;
  mutable time_refresh : float;
  mutable time_candidates : float;
}
(** One run's state.  A policy counts its own commits and rollbacks in
    the mutable fields; the rest is the core's. *)

val run :
  mode:string -> ?progress:(progress -> unit) -> ?engine:engine -> params ->
  reduce:(t -> unit) -> Sl_tech.Design.t -> Sl_variation.Model.t -> stats
(** Mutates the design in place: set up, repair the yield, then — from a
    feasible state — call [reduce] and alternate (upsize the most
    violation-prone gate, [reduce] again, keep the round only if E[leak]
    dropped).  Publishes the stats under the [mode] label.  [progress]
    (default: none) must not mutate the design.

    [engine] (default: built from [params]) runs the optimizer on the
    caller's engine, which must time this design over this model.  The
    run then ignores [partition], and [jobs] sets only the ranking
    scan's domains.  It starts with {!Sl_leakage.Leak_ssta.refresh} and
    a full {!Sl_ssta.Hier.sync} (which also does any backward/path
    repair the caller's [~paths:false] syncs deferred); they leave the
    words a build would, so
    the trajectory and stats equal a one-shot run's; that start is
    counted as the build is, one re-measure point and one full analysis.
    The engine counters in the stats are deltas over the run; the
    [max_cone] and [max_level_width] peaks are the engine's since it was
    built.  The engine stays in step with the design when the run
    returns, and also when [progress] raises: no checkpoint is live at
    any progress point, so every move made so far is in the engine.
    @raise Invalid_argument if [eta] is outside (0, 1), or if [engine]
    times another design. *)

val reduce : t -> cutoff:int -> (t -> int) -> unit
(** [reduce st ~cutoff pass] runs passes until one commits fewer than
    [cutoff] moves, at most 25. *)

val report : t -> string -> unit
val yield : t -> float

(** {2 Timing engine} *)

val sync : t -> unit
(** Full sync: the worst-path view becomes current. *)

val measure : ?paths:bool -> t -> unit
(** Sync counted as a re-measure point; yield-only unless [paths]. *)

val rollback : t -> Sl_ssta.Hier.checkpoint -> unit
(** Checkpoint rollback, counted as a re-measure point; the caller has
    restored the design assignment first. *)

(** {2 Moves} *)

type ranked = {
  order : int array;  (** the ranked slots, best first, in [order.(0 .. len - 1)] *)
  len : int;
  score : float array;  (** per slot: the sensitivity; [infinity] = free win *)
  cost : float array;
      (** per slot: a [`Reduce] ranking's estimated yield cost of the move *)
}
(** A ranking, as a view of the run's buffers: gate g's threshold move
    is slot 2g and its size move slot 2g + 1 ({!slot_gate},
    {!slot_kind}).  Valid until the next ranking of the run. *)

val slot_gate : int -> int
val slot_kind : int -> [ `Vth | `Size ]

val rank :
  ?eligible:(int -> [ `Vth | `Size ] -> bool) -> ?direction:[ `Reduce | `Repair ] ->
  t -> ranked
(** Syncs, then scores every eligible single-gate move against the
    worst-path view, best first.  [`Reduce] (default) ranks leakage
    reductions (raise threshold / downsize by one) by the sensitivity;
    [`Repair] ranks upsizes by violation probability (its [cost] words
    are not the moves': a repair reads none).
    The order is total: score descending, ties by gate id descending then
    [`Size] before [`Vth].  The scan fans out over worker domains when
    the memo is frozen; the ranking is identical for every [jobs] value.

    A [`Reduce] ranking pays only for what changed since the previous
    one.  The run keeps each move's pure terms — its nominal delay shift
    ({!Sl_tech.Memo.delay_delta}), its E[leak] shift
    ({!Sl_leakage.Leak_ssta.mean_shift_if}) and its estimated yield cost
    — and recomputes a gate's shifts only when its own threshold, size
    or extra load, or the size of one of its fanouts, changed, and its
    costs (with its Δ = 0 violation) also when its [path_mu] or
    [path_sigma] word differs in any bit.  A re-priced gate's three Φ
    run on the four lanes of {!Sl_util.Special.normal_cdf4}.  Every
    eligible move is then re-scored from those terms with the current
    E[leak], as [mean -. (mean +. shift)], and the [P99_leak_per_yield]
    quantile is recomputed, so the ranking is bit-identical to one from
    scratch.  The live moves are sorted by one stable LSD radix sort
    over order-preserving 64-bit keys of their scores ([Float.compare]
    order: [-0.] = [0.], [nan] lowest), fed in slot-descending order. *)

type move = { gate : int; kind : [ `Vth | `Size ]; prev : int }

val still_valid : t -> [ `Vth | `Size ] -> int -> bool
(** [still_valid st kind gate]: the move is still possible; earlier
    moves may have used up its gate. *)

val count : t -> [ `Vth | `Size ] -> int -> unit
(** Add to the committed-move counter of one kind. *)

val headroom : t -> margin:float -> float
(** [margin · max 0 (yield − η)]: the estimated yield cost a pass may
    spend before the next exact re-measure. *)

val set : ?timing:bool -> t -> [ `Vth | `Size ] -> int -> int -> unit
(** [set st kind gate v] assigns one index and updates the leakage and —
    unless [~timing:false], for a caller that restores the timing view
    through {!rollback} — the timing engine. *)

val apply : t -> [ `Vth | `Size ] -> int -> move
(** One reduction move through {!set}. *)

val violation :
  path_mu:float array -> path_sigma:float array -> tmax:float -> int ->
  delta:float -> float

val est_yield_cost :
  path_mu:float array -> path_sigma:float array -> tmax:float -> int ->
  delta:float -> float

(**/**)

(** Internals exposed for unit tests. *)

type candidate = {
  score : float;
  kind : [ `Vth | `Size ];
  gate : int;
  est_cost : float;
}

val compare_candidates : candidate -> candidate -> int
(** The documented ranking order on records — the reference the slot sort
    is tested against. *)

val sort_slots : float array -> int array -> unit
(** [sort_slots score idx] sorts the distinct slot indices [idx] in place
    by [score] descending ([Float.compare] order), then slot descending,
    where gate g's threshold move sits in slot 2g and its size move in
    slot 2g + 1 — the ranking's radix sort. *)

val build : params -> Sl_tech.Design.t -> Sl_variation.Model.t -> engine
(** The engine a one-shot {!run} builds from its [params]: a test that
    passes it to {!run} can audit it at every progress point. *)

val create :
  mode:string -> progress:(progress -> unit) -> ?engine:engine -> params ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> t
(** The run state {!run} starts from: the engine built or started,
    nothing ranked yet. *)

val rank_cold :
  ?eligible:(int -> [ `Vth | `Size ] -> bool) -> ?direction:[ `Reduce | `Repair ] ->
  t -> ranked
(** {!rank} from an empty cache, leaving the run's cache as it is. *)

val rebuild : t -> unit
(** The alternation phase's engine rebuild after a bulk restore of the
    design assignment, counted as a re-measure point and a full
    analysis; the caller has refreshed the leakage accumulators first. *)
