(** Slack-band batched statistical optimizer: the banded commit policy.

    Same problem, ranking, yield repair and alternation as {!Stat_opt} —
    all run by {!Opt_core} — but built for throughput, in the style of
    the PrimeTime-contest flows: instead of committing one move at a time
    and re-measuring timing every few moves, it slices each pass's
    ranking into slack bands that fit inside a yield safe zone, applies a
    whole band through {!Sl_ssta.Hier.update_gate}, and pays a
    {e single} timing sync per band.

    {2 Algorithm}

    Per pass:
    + one full sync makes the worst-path view current and every eligible
      move is ranked once (the greedy formula, so both policies agree on
      what a good move is);
    + the ranking is consumed band by band: a band is the next run of
      candidates whose cumulative estimated yield cost fits the safe
      zone — [yield_margin · (yield − η)], re-measured from the live
      engine before each band — capped at 512 moves;
    + the band is applied in bulk (each move one
      {!Sl_ssta.Hier.update_gate} + O(1) leakage update) under an
      engine checkpoint, then a single yield-only sync re-measures;
    + if the yield held, the checkpoint is committed; if it dipped below
      η, the checkpoint {e is} the undo dictionary — one rollback
      restores the timing view bit-exactly, the design assignment is
      restored move by move, and the higher-ranked half of the band is
      retried (a binary search for the largest feasible prefix, ≤ log
      |band| syncs; the lower-ranked suffix is re-ranked next pass,
      since the committed prefix made its estimates stale).  A failing
      single move slows a gate down, and reduction only ever slows gates
      down, so it is blocked for the rest of the reduction run (the
      alternation phase upsizes, which breaks that monotonicity, so each
      run starts unblocked).  Bisection thus degenerates to {!Stat_opt}'s
      one-move-at-a-time behaviour in the worst case, while a healthy
      band commits hundreds of moves per sync.  The per-pass band cap
      adapts TCP-style — doubling while bands commit cleanly, halving on
      a rollback — so the optimizer converges near the largest band the
      cost estimates can sustain.

    The loop ends when a pass commits fewer than the trickle cutoff; the
    core's alternation phase then buys headroom.  The optimizer never
    terminates infeasible from a feasible start: every committed band was
    measured at yield ≥ η. *)

include module type of struct include Opt_core.Types end

type config = {
  tmax : float;               (** delay constraint, ps *)
  eta : float;                (** timing-yield target in (0, 1) *)
  sensitivity : sensitivity;  (** move-ranking metric *)
  allow_vth : bool;
  allow_size : bool;
  yield_margin : float;       (** fraction of the current yield headroom
                                  (yield − η) a band's cumulative
                                  estimated cost may spend — the safe
                                  zone.  Unlike the greedy optimizer's
                                  0.5 — which must survive 25 blind moves
                                  between refreshes — the band budget is
                                  re-measured from the live engine before
                                  {e every} band and overspending costs
                                  one checkpoint rollback, so the default
                                  spends the full headroom (1.0) *)
  min_pass_moves : int;       (** stop the reduction when a pass commits
                                  fewer moves than this.  The greedy
                                  optimizer runs its boundary trickle to
                                  exhaustion — dozens of passes committing
                                  a handful of moves each; cutting it
                                  early trades a sliver of leakage
                                  (bounded at ≤ 1% vs {!Stat_opt} in the
                                  bench) for most of the remaining timing
                                  propagations.  The effective cutoff is
                                  [min min_pass_moves (num_gates/250)]
                                  (at least 1), so small circuits still
                                  run to exhaustion; 1 reproduces the
                                  greedy run-to-exhaustion rule
                                  everywhere *)
  partition : bool;           (** time register-boundary cones
                                  separately ({!Sl_ssta.Hier}): cones
                                  re-timed concurrently on [jobs]
                                  domains.  Bit-identical to one cone at
                                  every sync point — move trajectories,
                                  leakage and yield do not change; a
                                  netlist that does not decompose is
                                  timed as one cone *)
  audit : bool;               (** debug: assert bit-agreement with a
                                  from-scratch analysis at every pass
                                  boundary (compiled out under
                                  [-noassert]) *)
  jobs : int;                 (** domains for level-parallel propagation
                                  inside the incremental engine; bit-
                                  identical for every value — only
                                  wall-clock changes *)
}

val default_config : tmax:float -> eta:float -> config
(** Paper metric, both knobs, margin 1.0, trickle cutoff at 4
    moves/pass, partition off, audit off.  A reduction run makes at most
    25 passes, and a band holds at most 512 moves. *)

val optimize :
  ?progress:(progress -> unit) -> ?engine:Opt_core.engine -> config -> Sl_tech.Design.t ->
  Sl_variation.Model.t -> stats
(** Mutates the design in place.  [progress] (default: none) is invoked
    after the repair phase, after every pass and after every alternation
    round — the serve daemon's streaming hook; it must not mutate the
    design and has no effect on the trajectory.  [engine] (default:
    built from [config]) runs on the caller's engine, as
    {!Opt_core.run} describes; the trajectory is the same.
    @raise Invalid_argument if [eta] is outside (0, 1). *)
