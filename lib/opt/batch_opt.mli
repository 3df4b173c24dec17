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
      zone — the whole headroom yield − η, re-measured from the live
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

    The loop ends when a pass commits fewer than [max 1 (min 4
    (gates/250))] moves — the trickle cutoff; the core's alternation
    phase then buys headroom.  The optimizer never terminates infeasible
    from a feasible start: every committed band was measured at
    yield ≥ η. *)

include module type of struct include Opt_core.Types end

val optimize :
  ?progress:(progress -> unit) -> ?engine:Opt_core.engine -> params -> Sl_tech.Design.t ->
  Sl_variation.Model.t -> stats
(** Mutates the design in place.  A reduction run makes at most 25
    passes, and a band holds at most 512 moves.  [progress] (default:
    none) is invoked after the repair phase, after every pass and after
    every alternation round — the serve daemon's streaming hook; it must
    not mutate the design and has no effect on the trajectory.  [engine]
    (default: built from [params]) runs on the caller's engine, as
    {!Opt_core.run} describes; the trajectory is the same.
    @raise Invalid_argument if [eta] is outside (0, 1). *)
