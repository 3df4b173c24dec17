module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Memo = Sl_tech.Memo
module Incremental = Sl_ssta.Incremental
module Hier = Sl_ssta.Hier
module Leak_ssta = Sl_leakage.Leak_ssta
module Special = Sl_util.Special
module Parallel = Sl_util.Parallel
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

module Types = struct
  type sensitivity =
    | Stat_leak_per_yield
    | Stat_leak_per_delay
    | Nominal_leak_per_yield
    | P99_leak_per_yield

  type params = {
    tmax : float;
    eta : float;
    sensitivity : sensitivity;
    allow_vth : bool;
    allow_size : bool;
    partition : bool;
    jobs : int;
  }

  let default_config ~tmax ~eta =
    {
      tmax;
      eta;
      sensitivity = Stat_leak_per_yield;
      allow_vth = true;
      allow_size = true;
      partition = false;
      jobs = 1;
    }

  type stats = {
    feasible : bool;
    vth_moves : int;
    size_moves : int;
    trials : int;
    passes : int;
    refreshes : int;
    syncs : int;
    rollbacks : int;
    bands_tried : int;
    bands_committed : int;
    bands_rolled_back : int;
    bisections : int;
    final_yield : float;
    full_refreshes : int;
    incr_updates : int;
    propagated_gates : int;
    props_per_move : float;
    mean_cone : float;
    max_cone : int;
    cutoffs : int;
    time_refresh : float;
    time_candidates : float;
    time_total : float;
    par_levels : int;
    seq_levels : int;
    max_level_width : int;
  }

  type progress = {
    stage : string;
    moves_committed : int;
    cur_yield : float;
    leak_mean : float;
  }
end

include Types

(* The ranking's radix sort takes 11-bit digits: six counting passes
   cover a 64-bit key, and the six histograms stay in cache. *)
let digit_bits = 11
let digits = 6
let radix = 1 lsl digit_bits

(* Buffers of the ranking's radix sort, grown to the live count and
   reused: two key and two slot buffers the passes alternate between,
   and one histogram per key digit. *)
type sorter = {
  hist : int array;
  mutable keys : Bytes.t;
  mutable keys' : Bytes.t;
  mutable slots : int array;
  mutable slots' : int array;
}

let sorter () =
  {
    hist = Array.make (digits * radix) 0;
    keys = Bytes.empty;
    keys' = Bytes.empty;
    slots = [||];
    slots' = [||];
  }

(* Key words are read and written unchecked: a key buffer holds 8 bytes
   for each of its slot buffer's entries, and only entries below the
   live count are touched. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [Sl_ssta.Arena.bits_equal], local so that it inlines: the scan
   compares two words per gate. *)
let[@inline] same_bits (x : float) y = Int64.bits_of_float x = Int64.bits_of_float y

(* The sort key of a score: keys in ascending unsigned order are scores
   in descending [Float.compare] order.  NaN, the lowest score, takes the
   largest key and both zeros take zero's.  A positive score's bits are
   complemented below the sign bit, so larger scores get smaller keys,
   all under zero's; a negative score keeps its bits, which have the sign
   bit set and grow with its magnitude. *)
let[@inline] rank_key x =
  if x <> x then -1L
  else
    let b = if x = 0.0 then 0L else Int64.bits_of_float x in
    if b < 0L then b else Int64.logand (Int64.lognot b) Int64.max_int

let[@inline] digit k shift =
  Int64.to_int (Int64.shift_right_logical k shift) land (radix - 1)

(* Sorts the slots flagged in [live] by [score] descending, then slot
   descending, and returns the array holding them in its first [len]
   entries, with [len].  One stable LSD radix sort of the [rank_key]s, a
   digit per pass, skipping a digit every key shares.  The slots enter
   in descending order, so equal keys keep it.  Gate g's moves sit in
   slots 2g (`Vth) and 2g + 1 (`Size), so this is [compare_candidates]'
   order on what they hold. *)
let sort_live so ~score ~live =
  let nslots = Bytes.length live in
  let len = ref 0 in
  for slot = 0 to nslots - 1 do
    if Bytes.get live slot <> '\000' then incr len
  done;
  let len = !len in
  if Array.length so.slots < len then begin
    let cap = Int.max len (2 * Array.length so.slots) in
    so.keys <- Bytes.create (8 * cap);
    so.keys' <- Bytes.create (8 * cap);
    so.slots <- Array.make cap 0;
    so.slots' <- Array.make cap 0
  end;
  let j = ref 0 in
  for slot = nslots - 1 downto 0 do
    if Bytes.get live slot <> '\000' then begin
      set64 so.keys (8 * !j) (rank_key score.(slot));
      so.slots.(!j) <- slot;
      incr j
    end
  done;
  (* one counting pass fills every digit's histogram *)
  let hist = so.hist in
  Array.fill hist 0 (digits * radix) 0;
  for i = 0 to len - 1 do
    let k = get64 so.keys (8 * i) in
    for p = 0 to digits - 1 do
      let h = (p * radix) + digit k (p * digit_bits) in
      hist.(h) <- hist.(h) + 1
    done
  done;
  let src_k = ref so.keys and src_s = ref so.slots in
  let dst_k = ref so.keys' and dst_s = ref so.slots' in
  for p = 0 to digits - 1 do
    let base = p * radix and shift = p * digit_bits in
    if len > 0 && hist.(base + digit (get64 !src_k 0) shift) < len then begin
      (* each digit's first output position *)
      let pos = ref 0 in
      for h = base to base + radix - 1 do
        let c = hist.(h) in
        hist.(h) <- !pos;
        pos := !pos + c
      done;
      let sk = !src_k and ss = !src_s and dk = !dst_k and ds = !dst_s in
      for i = 0 to len - 1 do
        let k = get64 sk (8 * i) in
        let h = base + digit k shift in
        let o = hist.(h) in
        hist.(h) <- o + 1;
        set64 dk (8 * o) k;
        ds.(o) <- ss.(i)
      done;
      src_k := dk;
      src_s := ds;
      dst_k := sk;
      dst_s := ss
    end
  done;
  (!src_s, len)

let sort_slots score idx =
  let live = Bytes.make (Array.length score) '\000' in
  Array.iter (fun slot -> Bytes.set live slot '\001') idx;
  let sorted, len = sort_live (sorter ()) ~score ~live in
  Array.blit sorted 0 idx 0 len

(* The ranking scan's run state.  Gate g's threshold move owns slot 2g
   and its size move slot 2g + 1.  A move's pure terms — its nominal delay
   shift, its E[leak] shift and its estimated yield cost — stay between
   scans together with the inputs they were computed from; scores and
   live flags are rewritten by every scan. *)
type ranking = {
  seen_vth : int array;      (* per gate: the assignment at the previous scan *)
  seen_size : int array;
  seen_extra : float array;
  fresh : Bytes.t;           (* per gate: [stale], [shifted] or [priced] *)
  seen_mu : float array;     (* per gate: the path words the costs are from *)
  seen_sigma : float array;
  delta : float array;       (* per slot: nominal delay shift *)
  shift : float array;       (* per slot: E[leak] shift *)
  cost : float array;        (* per slot: estimated yield cost, 0 unless delta > 0 *)
  score : float array;
  live : Bytes.t;
  sorter : sorter;
}

(* How much of a gate's cached terms is current: nothing, its moves'
   delay and E[leak] shifts, or their estimated costs too. *)
let stale = '\000'
let shifted = '\001'
let priced = '\002'

let ranking (d : Design.t) =
  let n = Circuit.num_gates d.Design.circuit in
  {
    seen_vth = Array.copy d.Design.vth_idx;
    seen_size = Array.copy d.Design.size_idx;
    seen_extra = Array.copy d.Design.extra_load;
    fresh = Bytes.make n stale;
    seen_mu = Array.make n 0.0;
    seen_sigma = Array.make n 0.0;
    delta = Array.make (2 * n) 0.0;
    shift = Array.make (2 * n) 0.0;
    cost = Array.make (2 * n) 0.0;
    score = Array.make (2 * n) 0.0;
    live = Bytes.make (2 * n) '\000';
    sorter = sorter ();
  }

(* Each domain's four-lane Φ frame ([Special.normal_cdf4]) for the
   ranking scan. *)
let phi_frame = Domain.DLS.new_key (fun () -> Array.make 8 0.0)

(* Declared before [t], so an unannotated [st.leak] or [st.memo] still
   reads a run's state. *)
type engine = { timing : Hier.t; leak : Leak_ssta.t; memo : Memo.t }

type t = {
  p : params;
  design : Design.t;
  leak : Leak_ssta.t;
  memo : Memo.t;
  engine : Hier.t;
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

let now () = Unix.gettimeofday ()

let build p (d : Design.t) model =
  let leak = Leak_ssta.create d model in
  let memo = Memo.create d.Design.lib in
  (* Freeze the memo up front when parallel ranking scans gates on the
     pool (register cones freeze it themselves).  Prefilled first, so
     frozen lookups stay bit-identical to lazy filling. *)
  if p.jobs > 1 then begin
    Memo.prefill memo d;
    Memo.freeze memo
  end;
  { timing = Hier.create ~memo ~jobs:p.jobs ~partition:p.partition d model ~tmax:p.tmax;
    leak; memo }

let create ~mode ~progress ?engine p (d : Design.t) model =
  let e =
    match engine with
    | None -> build p d model
    | Some (e : engine) ->
      (* measured afresh: [Leak_ssta.refresh] leaves a fresh
         [Leak_ssta.create]'s words, and a full sync — which also does
         any backward/path repair a caller's [~paths:false] syncs
         deferred — leaves the words a build would *)
      if Hier.design e.timing != d then
        invalid_arg "optimize: the engine times another design";
      Leak_ssta.refresh e.leak;
      Hier.sync e.timing;
      e
  in
  Metrics.set
    (Metrics.gauge ~labels:[ ("mode", mode) ]
       ~help:"Register-boundary cones driven by the optimizer"
       "statleak_opt_partitions")
    (float_of_int (Hier.num_partitions e.timing));
  (* the build, or the start on a caller's engine, counts as the first
     exact measure point and full analysis *)
  {
    p; design = d; leak = e.leak; memo = e.memo; engine = e.timing; ranking = ranking d;
    progress;
    vth_moves = 0; size_moves = 0; trials = 0; passes = 0; refreshes = 1;
    syncs = 0; rollbacks = 0; full_refreshes = 1; bands_tried = 0;
    bands_committed = 0; bands_rolled_back = 0; bisections = 0;
    time_refresh = 0.0; time_candidates = 0.0;
  }

let yield st = Hier.yield st.engine

let report st stage =
  st.progress
    {
      stage;
      moves_committed = st.vth_moves + st.size_moves;
      cur_yield = yield st;
      leak_mean = Leak_ssta.mean st.leak;
    }

let timed st f =
  let t0 = now () in
  f ();
  st.time_refresh <- st.time_refresh +. (now () -. t0)

(* Full sync: makes the worst-path view current before it is read. *)
let sync st =
  timed st (fun () -> Hier.sync st.engine);
  st.syncs <- st.syncs + 1

(* Exact re-measure point.  Yield-only by default: the backward/path
   repair stays deferred until the next ranking syncs it. *)
let measure ?(paths = false) st =
  timed st (fun () -> Hier.sync ~paths st.engine);
  st.syncs <- st.syncs + 1;
  st.refreshes <- st.refreshes + 1

(* A checkpoint rollback restores an exactly measured state, so it counts
   as a re-measure point (it replaces a second refresh).  The caller has
   restored the design assignment first. *)
let rollback st cp =
  timed st (fun () -> Hier.rollback st.engine cp);
  st.refreshes <- st.refreshes + 1

(* After bulk design restores the dirty cone is the whole circuit, so the
   engine starts over. *)
let rebuild st =
  timed st (fun () -> Hier.rebuild st.engine);
  st.refreshes <- st.refreshes + 1;
  st.full_refreshes <- st.full_refreshes + 1

(* Set one gate's threshold or size index and push the change through the
   timing engine ([timing], default true) and the leakage accumulators. *)
let set ?(timing = true) st kind gate v =
  (match kind with
  | `Vth -> Design.set_vth st.design gate v
  | `Size -> Design.set_size st.design gate v);
  if timing then Hier.update_gate st.engine gate;
  Leak_ssta.update_gate st.leak gate

type candidate = {
  score : float;
  kind : [ `Vth | `Size ];
  gate : int;
  est_cost : float;
}

(* A ranking: slots best first in [order.(0 .. len - 1)], read against
   the run's per-slot score and cost buffers.  Gate g's threshold move
   is slot 2g, its size move slot 2g + 1. *)
type ranked = { order : int array; len : int; score : float array; cost : float array }

let[@inline] slot_gate slot = slot lsr 1
let[@inline] slot_kind slot = if slot land 1 = 1 then `Size else `Vth

type move = { gate : int; kind : [ `Vth | `Size ]; prev : int }

(* One leakage reduction: raise the threshold or downsize by one. *)
let apply st kind gate =
  let d = st.design in
  let prev, next =
    match kind with
    | `Vth -> (d.Design.vth_idx.(gate), d.Design.vth_idx.(gate) + 1)
    | `Size -> (d.Design.size_idx.(gate), d.Design.size_idx.(gate) - 1)
  in
  set st kind gate next;
  { gate; kind; prev }

(* A ranked candidate may have been invalidated by earlier moves of the
   same pass; re-check cheaply. *)
let still_valid st kind gate =
  let d = st.design in
  match kind with
  | `Vth -> d.Design.vth_idx.(gate) + 1 < Cell_lib.num_vth d.Design.lib
  | `Size -> d.Design.size_idx.(gate) > 0

let count st kind delta =
  match kind with
  | `Vth -> st.vth_moves <- st.vth_moves + delta
  | `Size -> st.size_moves <- st.size_moves + delta

(* The yield budget a pass may spend: a share of the headroom over eta. *)
let headroom st ~margin = margin *. Float.max 0.0 (yield st -. st.p.eta)

(* P(T_g + delta > tmax) with T_g Gaussian(mu, sigma). *)
let violation ~path_mu ~path_sigma ~tmax id ~delta =
  let mu = path_mu.(id) +. delta and sigma = path_sigma.(id) in
  if sigma <= 0.0 then if mu > tmax then 1.0 else 0.0
  else 1.0 -. Special.normal_cdf ((tmax -. mu) /. sigma)

(* Estimated yield cost of shifting gate [id]'s worst path by [delta].
   Zero-sigma gates (deterministic paths) are handled explicitly: the move
   either pushes the path over the constraint (cost 1) or it does not
   (cost 0) — in particular a path already over the constraint is not
   charged again, so such gates cannot double-count through the 1e-12
   epsilon in the score denominators.  [v0] is the gate's violation at
   delta 0, which the ranking scan computes once for both of its moves. *)
let est_cost_from ~path_mu ~path_sigma ~tmax id ~v0 ~delta =
  let sigma = path_sigma.(id) in
  if sigma <= 0.0 then
    if path_mu.(id) +. delta > tmax && path_mu.(id) <= tmax then 1.0 else 0.0
  else Float.max 0.0 (violation ~path_mu ~path_sigma ~tmax id ~delta -. v0)

let est_yield_cost ~path_mu ~path_sigma ~tmax id ~delta =
  est_cost_from ~path_mu ~path_sigma ~tmax id ~delta
    ~v0:(violation ~path_mu ~path_sigma ~tmax id ~delta:0.0)

let nominal_leak (d : Design.t) id ~vth_idx ~size_idx =
  let g = Circuit.gate d.Design.circuit id in
  Cell_lib.leak_current d.Design.lib g.Circuit.kind
    ~arity:(Array.length g.Circuit.fanin) ~size_idx ~vth_idx ~dvth:0.0 ~dl:0.0

(* Deterministic candidate order: score descending, ties broken by gate id
   descending and `Size before `Vth within a gate.  Ties are real — every
   free-win candidate scores infinity, and zero-est-cost candidates score
   dleak/1e-12 — and the stdlib does not promise List.sort is stable, so
   an explicit tie-break is what makes optimizer trajectories reproducible
   across stdlib versions.  The chosen order equals what the current
   (stable-in-practice) sort produced over the reverse build order, so
   pinned seed trajectories are unchanged.  The ranking itself sorts slots
   ([sort_live]); this is the reference it is tested against. *)
let kind_rank = function `Size -> 0 | `Vth -> 1

let compare_candidates (a : candidate) (b : candidate) =
  let c = Float.compare b.score a.score in
  if c <> 0 then c
  else
    let c = Int.compare b.gate a.gate in
    if c <> 0 then c else Int.compare (kind_rank a.kind) (kind_rank b.kind)

(* A move's delay shift reads the gate's own threshold, size and extra
   load and its fanouts' sizes (their input pins load it); its E[leak]
   shift reads the gate's assignment.  A gate whose own inputs changed
   since the previous scan, and every fanin of a gate whose size did,
   loses its cached terms. *)
let expire (r : ranking) (d : Design.t) =
  let c = d.Design.circuit in
  for id = 0 to Circuit.num_gates c - 1 do
    let s = d.Design.size_idx.(id) in
    if s <> r.seen_size.(id) then begin
      r.seen_size.(id) <- s;
      Bytes.set r.fresh id stale;
      let fanin = (Circuit.gate c id).Circuit.fanin in
      for k = 0 to Array.length fanin - 1 do
        Bytes.set r.fresh fanin.(k) stale
      done
    end;
    let v = d.Design.vth_idx.(id) and x = d.Design.extra_load.(id) in
    if v <> r.seen_vth.(id) || not (same_bits x r.seen_extra.(id)) then begin
      r.seen_vth.(id) <- v;
      r.seen_extra.(id) <- x;
      Bytes.set r.fresh id stale
    end
  done

(* Worker domains used by the most recent candidate ranking — `--profile`
   evidence that the parallel scan actually engaged. *)
let m_rank_jobs =
  Metrics.gauge ~help:"Worker domains used by the last candidate ranking"
    "statleak_opt_rank_jobs"

(* Score every eligible single-gate move of the design against the worst-
   path view.  [`Reduce] ranks leakage reductions (raise threshold /
   downsize); [`Repair] ranks yield repairs (upsize) by violation
   probability — the one scoring path behind both policies' reduction
   passes and the repair phase.

   A [`Reduce] scan keeps each move's pure terms in [r] (see [ranking])
   and recomputes a gate's only when their inputs changed: the delay and
   E[leak] shifts after [expire], the estimated costs also when the
   gate's path words differ in any bit.  Every eligible move is then
   re-scored from its terms with E[leak] read once per scan, the same
   operations on the same words as a scan from scratch, so the result is
   bit-identical to it.  The scan writes each slot of unboxed arrays, so
   it fans out over gate-id chunks when [jobs] > 1 {e and} the memo is
   frozen (worker domains must never fill the table).  Each slot depends
   only on its gate id and the slot order is total, so the sorted result
   is identical for every [jobs] value.  The result is a view of the
   run's buffers: no record per move. *)
let scan ~eligible ~direction (r : ranking) st =
  let p = st.p and d = st.design and memo = st.memo and leak = st.leak in
  let path_mu = Hier.path_mu st.engine and path_sigma = Hier.path_sigma st.engine in
  let tmax = p.tmax in
  let n = Circuit.num_gates d.Design.circuit in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let leak_mean_now = Leak_ssta.mean leak in
  let leak_p99_now =
    match p.sensitivity with
    | P99_leak_per_yield -> Leak_ssta.quantile leak 0.99
    | _ -> 0.0
  in
  let score = r.score and live = r.live in
  let delta = r.delta and shift = r.shift and cost = r.cost in
  let put slot s =
    score.(slot) <- s;
    Bytes.set live slot '\001'
  in
  let terms slot gate ~vth_idx ~size_idx =
    delta.(slot) <- Memo.delay_delta memo d gate ~vth_idx ~size_idx;
    shift.(slot) <- Leak_ssta.mean_shift_if leak gate ~vth_idx ~size_idx
  in
  let price slot gate ~v0 =
    let delta = delta.(slot) in
    cost.(slot) <-
      (if delta > 0.0 then est_cost_from ~path_mu ~path_sigma ~tmax gate ~v0 ~delta
       else 0.0)
  in
  (* A gate's three Φ — its Δ = 0 violation and both moves' — on the
     four lanes of [phi]: each lane is [violation]'s [normal_cdf], and
     the costs are [price]'s words.  Only for a positive sigma; a zero
     sigma takes [price]'s branch. *)
  let price_lanes phi id ~vth_move ~size_move =
    let mu = path_mu.(id) and sigma = path_sigma.(id) in
    let dv = delta.(2 * id) and ds = delta.((2 * id) + 1) in
    phi.(0) <- (tmax -. (mu +. 0.0)) /. sigma;
    phi.(1) <- (tmax -. (mu +. dv)) /. sigma;
    phi.(2) <- (tmax -. (mu +. ds)) /. sigma;
    phi.(3) <- 0.0;
    Special.normal_cdf4 phi;
    let v0 = 1.0 -. phi.(0) in
    if vth_move then
      cost.(2 * id) <- (if dv > 0.0 then Float.max 0.0 (1.0 -. phi.(1) -. v0) else 0.0);
    if size_move then
      cost.((2 * id) + 1) <-
        (if ds > 0.0 then Float.max 0.0 (1.0 -. phi.(2) -. v0) else 0.0)
  in
  let rescore slot gate ~vth_idx ~size_idx =
    let delta = delta.(slot) in
    if delta <> 0.0 then begin
      (* the what-if mean is [mean +. shift], the mean read once per scan *)
      let dleak_stat = leak_mean_now -. (leak_mean_now +. shift.(slot)) in
      if dleak_stat <= 0.0 then ()
      else if delta > 0.0 then begin
        let est_cost = cost.(slot) in
        put slot
          (match p.sensitivity with
          | Stat_leak_per_yield -> dleak_stat /. (est_cost +. 1e-12)
          | Stat_leak_per_delay -> dleak_stat /. Float.max 1e-9 delta
          | Nominal_leak_per_yield ->
            let dleak_nom =
              nominal_leak d gate ~vth_idx:d.Design.vth_idx.(gate)
                ~size_idx:d.Design.size_idx.(gate)
              -. nominal_leak d gate ~vth_idx ~size_idx
            in
            dleak_nom /. (est_cost +. 1e-12)
          | P99_leak_per_yield ->
            let dp99 =
              leak_p99_now -. Leak_ssta.quantile_if leak gate ~vth_idx ~size_idx ~p:0.99
            in
            dp99 /. (est_cost +. 1e-12))
      end
      else
        (* a move that saves leakage AND delay is a free win; top rank *)
        put slot infinity
    end
  in
  let scan_gate phi id =
    if (Circuit.gate d.Design.circuit id).Circuit.kind <> Cell_kind.Pi then
      match direction with
      | `Repair ->
        (* upsize the gate to pull its worst path in; scored by the
           violation probability so the sort order equals the historical
           fix_yield ranking (probability desc, gate id desc) *)
        if d.Design.size_idx.(id) + 1 < num_sizes && eligible id `Size then begin
          let v = violation ~path_mu ~path_sigma ~tmax id ~delta:0.0 in
          if v > 0.0 then put ((2 * id) + 1) v
        end
      | `Reduce ->
        let v = d.Design.vth_idx.(id) and s = d.Design.size_idx.(id) in
        let vth_move = p.allow_vth && v + 1 < num_vth in
        let size_move = p.allow_size && s > 0 in
        if vth_move || size_move then begin
          if Bytes.get r.fresh id = stale then begin
            if vth_move then terms (2 * id) id ~vth_idx:(v + 1) ~size_idx:s;
            if size_move then terms ((2 * id) + 1) id ~vth_idx:v ~size_idx:(s - 1);
            Bytes.set r.fresh id shifted
          end;
          let mu = path_mu.(id) and sigma = path_sigma.(id) in
          if
            Bytes.get r.fresh id = shifted
            || (not (same_bits mu r.seen_mu.(id)))
            || not (same_bits sigma r.seen_sigma.(id))
          then begin
            if sigma > 0.0 then price_lanes phi id ~vth_move ~size_move
            else begin
              (* the Δ = 0 violation, shared by both moves' costs *)
              let v0 = violation ~path_mu ~path_sigma ~tmax id ~delta:0.0 in
              if vth_move then price (2 * id) id ~v0;
              if size_move then price ((2 * id) + 1) id ~v0
            end;
            r.seen_mu.(id) <- mu;
            r.seen_sigma.(id) <- sigma;
            Bytes.set r.fresh id priced
          end;
          if vth_move && eligible id `Vth then
            rescore (2 * id) id ~vth_idx:(v + 1) ~size_idx:s;
          if size_move && eligible id `Size then
            rescore ((2 * id) + 1) id ~vth_idx:v ~size_idx:(s - 1)
        end
  in
  Bytes.fill live 0 (Bytes.length live) '\000';
  if direction = `Reduce then expire r d;
  let eff_jobs = if p.jobs > 1 && Memo.frozen memo then p.jobs else 1 in
  Metrics.set m_rank_jobs (float_of_int (Parallel.domains ~jobs:eff_jobs));
  Parallel.run_chunks ~jobs:eff_jobs ~threshold:1024 ~n
    ~init:(fun () -> Domain.DLS.get phi_frame)
    (fun phi lo hi ->
      for id = lo to hi - 1 do
        scan_gate phi id
      done);
  let order, len = sort_live r.sorter ~score ~live in
  { order; len; score; cost }

let rank_with r ?(eligible = fun _ _ -> true) ?(direction = `Reduce) st =
  sync st;
  let t0 = now () in
  let sorted =
    Trace.span "opt.rank"
      ~attrs:[ ("gates", string_of_int (Circuit.num_gates st.design.Design.circuit)) ]
      (fun () -> scan ~eligible ~direction r st)
  in
  st.time_candidates <- st.time_candidates +. (now () -. t0);
  sorted

let rank ?eligible ?direction st = rank_with st.ranking ?eligible ?direction st
let rank_cold ?eligible ?direction st = rank_with (ranking st.design) ?eligible ?direction st

(* Initial yield repair: upsize statistically critical gates.  Each step
   ranks upsizable gates in [`Repair] direction and trial-applies the top
   few under a checkpoint, each trial measured by one yield-only sync,
   keeping the first that improves yield; a rejected trial rolls the
   checkpoint back.  The phase ends when no candidate in the shortlist
   helps. *)
let fix_yield st =
  Trace.span "opt.fix_yield" @@ fun () ->
  let d = st.design in
  let n = Circuit.num_gates d.Design.circuit in
  let shortlist = 16 in
  let stuck = ref false in
  let steps = ref 0 in
  while yield st < st.p.eta && (not !stuck) && !steps < 4 * n do
    incr steps;
    let ranked = rank ~direction:`Repair st in
    let rec try_candidates k =
      if k >= shortlist || k >= ranked.len then false
      else begin
        let id = slot_gate ranked.order.(k) in
        let s = d.Design.size_idx.(id) in
        let cp = Hier.checkpoint st.engine in
        set st `Size id (s + 1);
        st.trials <- st.trials + 1;
        let y_before = yield st in
        measure st;
        if yield st > y_before then begin
          Hier.commit st.engine cp;
          count st `Size 1;
          true
        end
        else begin
          set ~timing:false st `Size id s;
          rollback st cp;
          try_candidates (k + 1)
        end
      end
    in
    if not (try_candidates 0) then stuck := true
  done

(* Passes run until one commits fewer than [cutoff] moves, at most
   [max_passes] per reduction run. *)
let max_passes = 25

let reduce st ~cutoff pass =
  let pass0 = st.passes in
  let go = ref true in
  while !go && st.passes - pass0 < max_passes do
    st.passes <- st.passes + 1;
    let committed =
      Trace.span "opt.pass" ~attrs:[ ("pass", string_of_int st.passes) ] (fun () ->
          pass st)
    in
    if committed < cutoff then go := false
  done

(* Alternation: single moves can be trapped when every remaining
   reduction needs slack that only an upsize elsewhere can create.  Buy
   headroom by upsizing the most violation-prone gate, re-run the
   reduction, and keep the round only if E[leak] actually dropped. *)
let alternate st ~reduce =
  let d = st.design in
  let n = Circuit.num_gates d.Design.circuit in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 4 do
    incr rounds;
    sync st;
    let best_leak = Leak_ssta.mean st.leak in
    let saved_vth = Array.copy d.Design.vth_idx in
    let saved_size = Array.copy d.Design.size_idx in
    let path_mu = Hier.path_mu st.engine and path_sigma = Hier.path_sigma st.engine in
    (* most critical upsizable cell *)
    let target = ref (-1) and worst = ref (-1.0) in
    for id = 0 to n - 1 do
      if
        (Circuit.gate d.Design.circuit id).Circuit.kind <> Cell_kind.Pi
        && d.Design.size_idx.(id) + 1 < num_sizes
      then begin
        let v = violation ~path_mu ~path_sigma ~tmax:st.p.tmax id ~delta:0.0 in
        if Float.compare v !worst > 0 then begin
          worst := v;
          target := id
        end
      end
    done;
    if !target < 0 then continue_ := false
    else begin
      set st `Size !target (d.Design.size_idx.(!target) + 1);
      count st `Size 1;
      st.trials <- st.trials + 1;
      measure ~paths:true st;
      reduce st;
      if yield st < st.p.eta || Leak_ssta.mean st.leak >= best_leak then begin
        (* round did not pay off: bulk-restore the previous solution *)
        Array.blit saved_vth 0 d.Design.vth_idx 0 n;
        Array.blit saved_size 0 d.Design.size_idx 0 n;
        Leak_ssta.refresh st.leak;
        rebuild st;
        continue_ := false
      end;
      report st "alternation"
    end
  done

(* The engine's counters count the run: [base] is what they read when it
   started.  Its two peaks, [max_cone] and [max_level_width], are its
   own. *)
let stats st ~(base : Incremental.stats) ~time_total : stats =
  let is = Hier.stats st.engine in
  let run f = f is - f base in
  let updates = run (fun s -> s.Incremental.updates)
  and propagated = run (fun s -> s.Incremental.propagated) in
  let moves = st.vth_moves + st.size_moves in
  let props = propagated + run (fun s -> s.Incremental.bwd_propagated) in
  let per a b = if b > 0 then float_of_int a /. float_of_int b else 0.0 in
  {
    feasible = yield st >= st.p.eta;
    vth_moves = st.vth_moves;
    size_moves = st.size_moves;
    trials = st.trials;
    passes = st.passes;
    refreshes = st.refreshes;
    syncs = st.syncs;
    rollbacks = st.rollbacks;
    bands_tried = st.bands_tried;
    bands_committed = st.bands_committed;
    bands_rolled_back = st.bands_rolled_back;
    bisections = st.bisections;
    final_yield = yield st;
    full_refreshes = st.full_refreshes;
    incr_updates = updates;
    propagated_gates = props;
    props_per_move = per props moves;
    mean_cone = per propagated updates;
    max_cone = is.Incremental.max_cone;
    cutoffs = run (fun s -> s.Incremental.cutoffs);
    time_refresh = st.time_refresh;
    time_candidates = st.time_candidates;
    time_total;
    par_levels = run (fun s -> s.Incremental.par_levels);
    seq_levels = run (fun s -> s.Incremental.seq_levels);
    max_level_width = is.Incremental.max_level_width;
  }

(* End-of-run publication into the process-global registry: every number
   the profile view prints comes from here, so `--profile` is a read of
   one source of truth.  Count-like fields accumulate ([add]) — under
   serve, repeated optimizes keep proper counter semantics — while
   per-run figures (yield, cone shape, times) are gauges.  Band events
   are not repeated here: the banded policy counts them live. *)
let publish_stats ~mode (s : stats) =
  let labels = [ ("mode", mode) ] in
  let c name v = Metrics.add (Metrics.counter ~labels name) v in
  let g name v = Metrics.set (Metrics.gauge ~labels name) v in
  g "statleak_opt_feasible" (if s.feasible then 1.0 else 0.0);
  c "statleak_opt_vth_moves_total" s.vth_moves;
  c "statleak_opt_size_moves_total" s.size_moves;
  c "statleak_opt_trials_total" s.trials;
  c "statleak_opt_passes_total" s.passes;
  c "statleak_opt_refreshes_total" s.refreshes;
  c "statleak_opt_syncs_total" s.syncs;
  c "statleak_opt_rollbacks_total" s.rollbacks;
  g "statleak_opt_final_yield" s.final_yield;
  c "statleak_opt_full_refreshes_total" s.full_refreshes;
  c "statleak_opt_incr_updates_total" s.incr_updates;
  c "statleak_opt_propagated_gates_total" s.propagated_gates;
  g "statleak_opt_props_per_move" s.props_per_move;
  g "statleak_opt_mean_cone" s.mean_cone;
  g "statleak_opt_max_cone" (float_of_int s.max_cone);
  c "statleak_opt_cutoffs_total" s.cutoffs;
  g "statleak_opt_time_refresh_seconds" s.time_refresh;
  g "statleak_opt_time_candidates_seconds" s.time_candidates;
  g "statleak_opt_time_total_seconds" s.time_total;
  c "statleak_opt_par_levels_total" s.par_levels;
  c "statleak_opt_seq_levels_total" s.seq_levels;
  g "statleak_opt_max_level_width" (float_of_int s.max_level_width)

let run ~mode ?(progress = fun (_ : progress) -> ()) ?engine p ~reduce d model =
  if not (p.eta > 0.0 && p.eta < 1.0) then
    invalid_arg (Printf.sprintf "optimize: eta = %g outside (0, 1)" p.eta);
  Trace.span "opt.optimize" ~attrs:[ ("mode", mode) ] @@ fun () ->
  let t0 = now () in
  let st = create ~mode ~progress ?engine p d model in
  let base = Hier.stats st.engine in
  fix_yield st;
  report st "fix_yield";
  if yield st >= p.eta then begin
    reduce st;
    if p.allow_size then alternate st ~reduce
  end;
  let s = stats st ~base ~time_total:(now () -. t0) in
  publish_stats ~mode s;
  s
