module Circuit = Sl_netlist.Circuit
module Design = Sl_tech.Design
module Hier = Sl_ssta.Hier
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics
module Core = Opt_core

include Opt_core.Types

(* Band events are counted live — a serve metrics scrape mid-run sees
   them move — while the scalar run totals are published once at the end
   of [optimize] from the same stats record the caller gets. *)
let m_bands_tried =
  Metrics.counter ~help:"Bands applied under a checkpoint"
    "statleak_batch_bands_tried_total"

let m_bands_committed =
  Metrics.counter ~help:"Bands whose sync kept the yield constraint"
    "statleak_batch_bands_committed_total"

let m_bands_rolled_back =
  Metrics.counter ~help:"Bands rolled back through their checkpoint"
    "statleak_batch_bands_rolled_back_total"

let m_bisections =
  Metrics.counter ~help:"Failed bands retried at half size"
    "statleak_batch_bisections_total"

(* Hard cap on moves per band. *)
let band_size = 512

let m_band_size =
  Metrics.histogram ~help:"Moves per attempted band" ~bins:16 ~lo:0.0
    ~hi:(float_of_int band_size) "statleak_batch_band_size"

(* The share of the headroom (yield − η) a band's cumulative estimated
   cost may spend: the safe zone.  Unlike the greedy policy's 0.5, which
   must survive 25 blind moves between re-measures, the band budget is
   re-measured from the live engine before every band and overspending
   costs one checkpoint rollback, so a band spends the full headroom. *)
let yield_margin = 1.0

(* The trickle cutoff: the reduction stops when a pass commits fewer
   moves than [min min_pass_moves (gates/250)] (at least 1).  The greedy
   policy runs its boundary trickle to literal exhaustion — dozens of
   passes committing a handful of moves each; cutting it early trades a
   sliver of leakage (bounded in the bench at ≤ 1% vs {!Stat_opt}) for a
   large share of the remaining timing propagations.  The cutoff scales
   with circuit size, so small circuits still run to exhaustion. *)
let min_pass_moves = 4

type bands = {
  (* adaptive band cap, TCP-style: the estimated yield costs the safe
     zone is budgeted with are optimistic for off-critical moves (their
     cost rounds to zero), so the sustainable band size is circuit- and
     phase-dependent.  The cap doubles on every cleanly committed band
     until the first rollback (slow start), then grows additively and
     halves on failure (AIMD), converging near the largest band the
     estimate can sustain instead of oscillating between a committing
     size and twice it — every oscillation wastes a whole-band apply,
     sync and rollback. *)
  mutable band_cap : int;
  mutable slow_start : bool;
  (* moves that failed at single-move granularity, indexed 2·gate + kind.
     Every reduction move slows a gate down, so yield is monotone
     non-increasing along a reduction run: a move that broke the
     constraint once can only break it harder later in the same run.
     Blocking it caps the retry cost at one failed trial per run.  The
     alternation phase upsizes (speeds up) gates, which breaks the
     monotonicity argument, so every reduction run starts unblocked. *)
  blocked : Bytes.t;
  (* the slots of the band being tried, best first *)
  band : int array;
}

let slot gate = function `Vth -> 2 * gate | `Size -> (2 * gate) + 1
let is_blocked b gate kind = Bytes.get b.blocked (slot gate kind) <> '\000'
let block b gate kind = Bytes.set b.blocked (slot gate kind) '\001'

(* Apply a whole band — the first [len] slots of [b.band] — under a
   checkpoint, re-measure the yield with one sync, and either commit or
   roll back and bisect.  A failing single move is simply dropped — the
   greedy degenerate case — so from a feasible state this can only ever
   keep or improve the greedy result. *)
let rec try_band b (st : Core.t) len =
  Trace.span "opt.band" ~attrs:[ ("moves", string_of_int len) ] @@ fun () ->
  st.bands_tried <- st.bands_tried + 1;
  Metrics.incr m_bands_tried;
  Metrics.observe m_band_size (float_of_int len);
  let cp = Hier.checkpoint st.engine in
  (* newest first, so shared-gate (vth, size) pairs unwind correctly *)
  let applied = ref [] in
  for i = 0 to len - 1 do
    let slot = b.band.(i) in
    applied := Core.apply st (Core.slot_kind slot) (Core.slot_gate slot) :: !applied
  done;
  Core.measure st;
  if Core.yield st >= st.p.eta then begin
    Hier.commit st.engine cp;
    st.bands_committed <- st.bands_committed + 1;
    Metrics.incr m_bands_committed;
    List.iter (fun (m : Core.move) -> Core.count st m.kind 1) !applied;
    len
  end
  else begin
    List.iter
      (fun (m : Core.move) -> Core.set ~timing:false st m.kind m.gate m.prev)
      !applied;
    Core.rollback st cp;
    st.bands_rolled_back <- st.bands_rolled_back + 1;
    Metrics.incr m_bands_rolled_back;
    st.rollbacks <- st.rollbacks + len;
    if len = 0 then 0
    else if len = 1 then begin
      let slot = b.band.(0) in
      block b (Core.slot_gate slot) (Core.slot_kind slot);
      0
    end
    else begin
      (* Retry only the higher-ranked half: this is a binary search for
         the largest feasible prefix of the band, ≤ log |band| syncs.
         Recursing into the suffix as well would cost O(|band|) syncs
         whenever a whole subtree is infeasible — and the suffix is
         exactly the part whose estimates the committed prefix has made
         stale, so it is better re-ranked on the next pass. *)
      st.bisections <- st.bisections + 1;
      Metrics.incr m_bisections;
      try_band b st (len / 2)
    end
  end

(* Slice the next band off the ranking, from position [pos]: fills
   [b.band] and returns its length and the position after it.  The safe
   zone is the current yield headroom scaled by the margin: a candidate
   joins the band only if its estimated yield cost fits the remaining
   budget — exactly the greedy policy's acceptance rule, so a candidate
   skipped here would have been skipped by {!Stat_opt} at the same
   headroom too (it is re-ranked next pass).  The band is additionally
   capped at [band_size] moves; the candidates beyond the cap start the
   next band, whose budget is re-measured from the live engine after
   this band settles. *)
let form_band b (st : Core.t) (r : Core.ranked) pos =
  let budget = ref (Core.headroom st ~margin:yield_margin) in
  let cap = Stdlib.min b.band_cap band_size in
  let n = ref 0 and i = ref pos in
  while !n < cap && !i < r.len do
    let slot = r.order.(!i) in
    incr i;
    let gate = Core.slot_gate slot and kind = Core.slot_kind slot in
    let cost = r.cost.(slot) in
    if (not (is_blocked b gate kind)) && Core.still_valid st kind gate && cost <= !budget
    then begin
      budget := !budget -. cost;
      b.band.(!n) <- slot;
      incr n
    end
  done;
  (!n, !i)

(* One pass: the ranking syncs the worst-path view, every eligible move
   is ranked once, and the ranking is consumed band by band.  Returns the
   number of committed moves. *)
let pass b (st : Core.t) =
  let r = Core.rank ~eligible:(fun gate kind -> not (is_blocked b gate kind)) st in
  st.trials <- st.trials + r.len;
  let committed = ref 0 in
  let pos = ref 0 in
  let go = ref true in
  while !go && !pos < r.len do
    let band_len, next = form_band b st r !pos in
    pos := next;
    if band_len = 0 then go := false (* only invalidated candidates remained *)
    else begin
      let rolled_before = st.bands_rolled_back in
      committed := !committed + try_band b st band_len;
      if st.bands_rolled_back = rolled_before then begin
        (* grow only when the band actually filled the cap: growing on
           every success lets a trickle of tiny committed bands creep the
           cap back into the failing zone, buying one wide failed trial —
           a whole union-cone propagation — per pass *)
        if band_len >= b.band_cap then
          b.band_cap <-
            Stdlib.min band_size
              (if b.slow_start then b.band_cap * 2 else b.band_cap + 8)
      end
      else begin
        b.slow_start <- false;
        b.band_cap <- Stdlib.max 4 (b.band_cap / 2);
        (* a rollback means the estimates have gone stale against the
           committed moves: stop consuming this ranking — the bisection
           above already salvaged the band's feasible part — and let the
           next pass re-rank against the fresh worst-path view instead of
           trialing thousands of stale candidates in collapsed bands *)
        go := false
      end
    end
  done;
  Core.report st "reduce";
  !committed

let optimize ?progress ?engine p (d : Design.t) model =
  let n = Circuit.num_gates d.Design.circuit in
  let b =
    { band_cap = Stdlib.min 64 band_size; slow_start = true;
      blocked = Bytes.make (2 * n) '\000'; band = Array.make band_size 0 }
  in
  let cutoff = Stdlib.max 1 (Stdlib.min min_pass_moves (n / 250)) in
  let reduce st =
    Bytes.fill b.blocked 0 (Bytes.length b.blocked) '\000';
    Core.reduce st ~cutoff (pass b)
  in
  Core.run ~mode:"batch" ?progress ?engine p ~reduce d model
