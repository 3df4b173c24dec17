module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Model = Sl_variation.Model
module Parallel = Sl_util.Parallel
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

(* Process-global mirrors of the per-engine counters below: every live
   engine (CLI run or serve session) feeds the same families, read by the
   serve [metrics] endpoint.  Deltas are published once per sync, never
   per gate, so the hot propagation loops stay atomic-free. *)
let m_updates =
  Metrics.counter ~help:"Incremental gate delay updates"
    "statleak_incr_updates_total"

let m_syncs =
  Metrics.counter ~help:"Incremental sync passes" "statleak_incr_syncs_total"

let m_rebuilds =
  Metrics.counter ~help:"Full from-scratch rebuilds"
    "statleak_incr_rebuilds_total"

let m_propagated =
  Metrics.counter ~help:"Arrival recomputations during incremental syncs"
    "statleak_incr_propagated_total"

let m_bwd_propagated =
  Metrics.counter ~help:"Required-time recomputations during incremental syncs"
    "statleak_incr_bwd_propagated_total"

let m_cutoffs =
  Metrics.counter ~help:"Propagations cut off by bit-identical recomputes"
    "statleak_incr_cutoffs_total"

type stats = {
  updates : int;
  syncs : int;
  rebuilds : int;
  propagated : int;
  bwd_propagated : int;
  cutoffs : int;
  max_cone : int;
  par_levels : int;
  seq_levels : int;
  max_level_width : int;
}

(* What a checkpoint keeps besides the undo log: the scalars and the
   deferred backward/path dirt carried into it — a rollback must re-arm
   that dirt, or the pre-checkpoint repairs would be lost.  The lists are
   immutable, so keeping them is O(1). *)
type checkpoint = {
  sv_yield : float;
  sv_pending_bwd : int list;
  sv_path_dirty : int list;
}

(* Kinds of logged state; a log key is [kind * n + id]. *)
let k_delay = 0
let k_arr = 1
let k_bwd = 2
let k_path = 3 (* two words: path mu, path sigma *)
let k_cd = 4 (* the circuit-delay slot, id 0 *)

type t = {
  design : Design.t;
  model : Model.t;
  memo : Memo.t;
  tmax : float;
  n : int;
  jobs : int;
  par_threshold : int;
  levels : int array array;
  (* the timing state, one Canonical row per gate *)
  delay : Arena.t;
  arr : Arena.t;
  bwd : Arena.t;
  cd : Arena.t; (* one slot: the circuit delay *)
  path_mu : float array;
  path_sigma : float array;
  mutable yield_ : float;
  (* dirt accumulated between update_gate calls and the next sync *)
  mutable pending_delay : int list;
  delay_pending : bool array;
  (* delay changes whose backward/path repair is still deferred — consumed
     only by a [sync ~paths:true] *)
  mutable pending_bwd : int list;
  bwd_pending : bool array;
  mutable out_dirty : bool;
  mutable path_dirty : int list;
  path_dirty_flag : bool array;
  (* per-propagation scratch, always cleared before returning: the gates
     whose slot changed in this pass *)
  arr_dirty : bool array;
  s_dirty : bool array;
  touched : int array;
  (* level-batch staging for the two-phase sync scans: the gates of the
     current level that must recompute, their fresh slots and (backward)
     whether each is live; one level wide *)
  work : int array;
  stage : Arena.t;
  stage_live : bool array;
  sc : Ssta.scratch; (* the calling domain's kernel scratch *)
  mutable cp : checkpoint option;
  (* undo log of the active checkpoint: one key per first-touched slot,
     its saved words appended to [log_words] in the same order *)
  mutable log_keys : int array;
  mutable log_nkeys : int;
  mutable log_words : float array;
  mutable log_nwords : int;
  logged : int array; (* per key: the epoch that logged it *)
  mutable epoch : int;
  (* counters *)
  mutable n_updates : int;
  mutable n_syncs : int;
  mutable n_rebuilds : int;
  mutable n_propagated : int;
  mutable n_bwd_propagated : int;
  mutable n_cutoffs : int;
  mutable n_max_cone : int;
  mutable n_par_levels : int;
  mutable n_seq_levels : int;
  mutable n_max_level_width : int;
}

let design t = t.design
let yield t = t.yield_
let circuit_delay t = Arena.get t.cd 0
let arrival t id = Arena.get t.arr id
let required t id = Arena.get t.bwd id
let arrival_slots t = t.arr
let circuit_delay_slot t = t.cd
let path_mu t = t.path_mu
let path_sigma t = t.path_sigma

let stats t =
  {
    updates = t.n_updates;
    syncs = t.n_syncs;
    rebuilds = t.n_rebuilds;
    propagated = t.n_propagated;
    bwd_propagated = t.n_bwd_propagated;
    cutoffs = t.n_cutoffs;
    max_cone = t.n_max_cone;
    par_levels = t.n_par_levels;
    seq_levels = t.n_seq_levels;
    max_level_width = t.n_max_level_width;
  }

(* ---------------- undo log ---------------- *)

let arena_of t kind =
  if kind = k_delay then t.delay
  else if kind = k_arr then t.arr
  else if kind = k_bwd then t.bwd
  else t.cd

(* Append the first write under the active checkpoint of each (kind, id):
   its current words, read before the caller overwrites them. *)
let save t kind id =
  let key = (kind * t.n) + id in
  if Option.is_some t.cp && t.logged.(key) <> t.epoch then begin
    t.logged.(key) <- t.epoch;
    if t.log_nkeys = Array.length t.log_keys then begin
      let k = Array.make (2 * t.log_nkeys) 0 in
      Array.blit t.log_keys 0 k 0 t.log_nkeys;
      t.log_keys <- k
    end;
    t.log_keys.(t.log_nkeys) <- key;
    t.log_nkeys <- t.log_nkeys + 1;
    let w = Arena.width t.arr in
    if t.log_nwords + w > Array.length t.log_words then begin
      let ws = Array.make (2 * (t.log_nwords + w)) 0.0 in
      Array.blit t.log_words 0 ws 0 t.log_nwords;
      t.log_words <- ws
    end;
    let nw = t.log_nwords in
    if kind = k_path then begin
      t.log_words.(nw) <- t.path_mu.(id);
      t.log_words.(nw + 1) <- t.path_sigma.(id);
      t.log_nwords <- nw + 2
    end
    else begin
      let a = arena_of t kind in
      Array.blit a.Arena.data (Arena.row a id) t.log_words nw w;
      t.log_nwords <- nw + w
    end
  end

(* Restore every logged slot, newest entry first, and empty the log. *)
let replay_log t =
  let w = Arena.width t.arr in
  for e = t.log_nkeys - 1 downto 0 do
    let key = t.log_keys.(e) in
    let kind = key / t.n and id = key mod t.n in
    if kind = k_path then begin
      t.log_nwords <- t.log_nwords - 2;
      t.path_mu.(id) <- t.log_words.(t.log_nwords);
      t.path_sigma.(id) <- t.log_words.(t.log_nwords + 1)
    end
    else begin
      let a = arena_of t kind in
      t.log_nwords <- t.log_nwords - w;
      Array.blit t.log_words t.log_nwords a.Arena.data (Arena.row a id) w
    end
  done;
  t.log_nkeys <- 0

let mark_path_dirty t id =
  if not t.path_dirty_flag.(id) then begin
    t.path_dirty_flag.(id) <- true;
    t.path_dirty <- id :: t.path_dirty
  end

(* ---------------- full (re)build ---------------- *)

let clear_pending t =
  List.iter (fun id -> t.delay_pending.(id) <- false) t.pending_delay;
  t.pending_delay <- [];
  List.iter (fun id -> t.bwd_pending.(id) <- false) t.pending_bwd;
  t.pending_bwd <- [];
  List.iter (fun id -> t.path_dirty_flag.(id) <- false) t.path_dirty;
  t.path_dirty <- [];
  t.out_dirty <- false

(* The from-scratch sweeps, straight into the engine's slots. *)
let recompute_all t =
  let c = t.design.Design.circuit in
  Ssta.forward_into ~memo:t.memo ~jobs:t.jobs ~par_threshold:t.par_threshold
    t.design t.model ~delay:t.delay ~arr:t.arr;
  Ssta.circuit_delay_into c ~arr:t.arr t.sc ~dst:t.cd 0;
  Ssta.backward_into ~jobs:t.jobs ~par_threshold:t.par_threshold c ~delay:t.delay
    ~bwd:t.bwd;
  (* per-gate path moments are independent, and float-array slots are
     written at most once per index: safe to chunk across domains *)
  Parallel.run_chunks ~jobs:t.jobs ~threshold:t.par_threshold ~n:t.n
    ~init:(fun () -> ())
    (fun () lo hi ->
      Ssta.paths_into ~arr:t.arr ~bwd:t.bwd lo hi ~mu:t.path_mu ~sigma:t.path_sigma);
  t.yield_ <- Canonical.cdf (circuit_delay t) t.tmax;
  clear_pending t

let create ?memo ?(jobs = 1) ?(par_threshold = Ssta.default_par_threshold)
    (d : Design.t) model ~tmax =
  if jobs < 1 then invalid_arg "Incremental.create: jobs < 1";
  let memo = match memo with Some m -> m | None -> Memo.create d.Design.lib in
  let c = d.Design.circuit in
  let n = Circuit.num_gates c in
  let num_pcs = Model.num_pcs model in
  let levels = Circuit.levels c in
  let wmax = Array.fold_left (fun acc l -> Stdlib.max acc (Array.length l)) 0 levels in
  let slots () = Arena.create ~n ~num_pcs in
  let t =
    {
      design = d;
      model;
      memo;
      tmax;
      n;
      jobs;
      par_threshold;
      levels;
      delay = slots ();
      arr = slots ();
      bwd = slots ();
      cd = Arena.create ~n:1 ~num_pcs;
      path_mu = Array.make n 0.0;
      path_sigma = Array.make n 0.0;
      yield_ = 0.0;
      pending_delay = [];
      delay_pending = Array.make n false;
      pending_bwd = [];
      bwd_pending = Array.make n false;
      out_dirty = false;
      path_dirty = [];
      path_dirty_flag = Array.make n false;
      arr_dirty = Array.make n false;
      s_dirty = Array.make n false;
      touched = Array.make n 0;
      work = Array.make wmax 0;
      stage = Arena.create ~n:wmax ~num_pcs;
      stage_live = Array.make wmax false;
      sc = Ssta.scratch ~num_pcs;
      cp = None;
      log_keys = Array.make 16 0;
      log_nkeys = 0;
      log_words = Array.make (16 * Canonical.row_width num_pcs) 0.0;
      log_nwords = 0;
      logged = Array.make ((4 * n) + 1) 0;
      epoch = 0;
      n_updates = 0;
      n_syncs = 0;
      n_rebuilds = 0;
      n_propagated = 0;
      n_bwd_propagated = 0;
      n_cutoffs = 0;
      n_max_cone = 0;
      n_par_levels = 0;
      n_seq_levels = 0;
      n_max_level_width = 0;
    }
  in
  recompute_all t;
  t

let rebuild t =
  (match t.cp with
  | Some _ -> invalid_arg "Incremental.rebuild: a checkpoint is active"
  | None -> ());
  t.n_rebuilds <- t.n_rebuilds + 1;
  Metrics.incr m_rebuilds;
  recompute_all t

(* ---------------- incremental delay update ---------------- *)

let update_gate t id =
  t.n_updates <- t.n_updates + 1;
  Metrics.incr m_updates;
  let c = t.design.Design.circuit in
  (* A threshold move changes only this gate's delay; a size move also
     changes its drive, its self-load, and the load seen by each fanin.
     Re-deriving the canonical delay of the gate plus its fanins covers
     both; unchanged fanins compare bit-equal and seed nothing.

     Propagation is deferred: the optimizer never reads arrivals between
     refresh points, so arrivals are repaired once per batch in [sync] over
     the union cone of every pending gate — an applied-then-undone move
     costs one cheap delay re-derivation here, not a cone walk. *)
  let refresh_delay gid =
    if (Circuit.gate c gid).Circuit.kind <> Cell_kind.Pi then begin
      (* stage slot 0 is free between syncs *)
      Ssta.gate_delay_into ~memo:t.memo t.design t.model t.stage 0 gid;
      if not (Arena.equal t.stage 0 t.delay gid) then begin
        save t k_delay gid;
        Arena.blit t.stage 0 t.delay gid;
        if not t.delay_pending.(gid) then begin
          t.delay_pending.(gid) <- true;
          t.pending_delay <- gid :: t.pending_delay
        end
      end
    end
  in
  refresh_delay id;
  Array.iter refresh_delay (Circuit.gate c id).Circuit.fanin

(* ---------------- lazy forward / backward / path / yield repair ------ *)

(* first index in (ascending) [a] whose value is >= x; Array.length a if none *)
let lower_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* first index in (ascending) [a] whose value is > x; Array.length a if none *)
let upper_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The frontier tests: does any id in [ids] carry a flag (in either
   array)? *)
let any_flagged (flags : bool array) (ids : int array) =
  let k = ref 0 and len = Array.length ids in
  while !k < len && not flags.(ids.(!k)) do
    incr k
  done;
  !k < len

let any_flagged2 (f1 : bool array) (f2 : bool array) (ids : int array) =
  let k = ref 0 and len = Array.length ids in
  while !k < len && not (f1.(ids.(!k)) || f2.(ids.(!k))) do
    incr k
  done;
  !k < len

(* Count a level batch of [wn] staged gates; [true] when it runs on
   domains. *)
let note_batch t wn =
  if wn > t.n_max_level_width then t.n_max_level_width <- wn;
  let par = t.jobs > 1 && wn >= t.par_threshold in
  if par then t.n_par_levels <- t.n_par_levels + 1
  else t.n_seq_levels <- t.n_seq_levels + 1;
  par

(* Compute phase of one level batch: slot i of [t.stage] (and, backward,
   [t.stage_live.(i)]) for the [wn] gates staged in [t.work].  Every
   staged gate reads only slots finalized by earlier levels and writes
   only its own stage slot, so the chunked parallel schedule produces the
   same words as the inline loop — the commit phase that follows is
   sequential either way. *)
let stage_forward t wn =
  let c = t.design.Design.circuit in
  if note_batch t wn then
    Parallel.run_chunks ~jobs:t.jobs ~threshold:t.par_threshold ~n:wn
      ~init:(fun () -> Ssta.scratch ~num_pcs:t.arr.Arena.num_pcs)
      (fun sc lo hi ->
        Ssta.forward_batch c ~delay:t.delay ~arr:t.arr sc ~dst:t.stage ~staged:true t.work
          lo hi)
  else
    Ssta.forward_batch c ~delay:t.delay ~arr:t.arr t.sc ~dst:t.stage ~staged:true t.work 0
      wn

let stage_backward t wn =
  let c = t.design.Design.circuit in
  if note_batch t wn then
    Parallel.run_chunks ~jobs:t.jobs ~threshold:t.par_threshold ~n:wn
      ~init:(fun () -> Ssta.scratch ~num_pcs:t.bwd.Arena.num_pcs)
      (fun sc lo hi ->
        Ssta.backward_batch c ~delay:t.delay ~bwd:t.bwd sc ~dst:t.stage ~staged:true
          ~live:t.stage_live t.work lo hi)
  else
    Ssta.backward_batch c ~delay:t.delay ~bwd:t.bwd t.sc ~dst:t.stage ~staged:true
      ~live:t.stage_live t.work 0 wn

(* Arrival view: dirt spreads downstream from every delay-changed gate,
   repaired level by level over the union of their fanout cones.  A gate
   recomputes iff its own delay is pending or a fanin's arrival moved; a
   recompute that comes back bit-identical cuts the cone off right
   there.  Gate ids are a topological order, so dirt can only reach ids
   at or above the lowest pending gate, and the frontier test exactly
   delimits the union fanout cone without materializing it. *)
let sync_forward t pending =
  let c = t.design.Design.circuit in
  let lo = List.fold_left (fun acc (g : int) -> if g < acc then g else acc) (t.n - 1) pending in
  let nt = ref 0 and recomputed = ref 0 in
  (* stage the level's must-recompute gates (their fanins sit at strictly
     lower levels, already committed), compute the new arrivals — on
     domains when the batch is wide — then commit sequentially in
     ascending id order *)
  for li = 0 to Array.length t.levels - 1 do
    let level = t.levels.(li) in
    let wn = ref 0 in
    for k = lower_bound level lo to Array.length level - 1 do
      let gid = level.(k) in
      let g = c.Circuit.gates.(gid) in
      if
        g.Circuit.kind <> Cell_kind.Pi
        && (t.delay_pending.(gid) || any_flagged t.arr_dirty g.Circuit.fanin)
      then begin
        t.work.(!wn) <- gid;
        incr wn
      end
    done;
    let wn = !wn in
    if wn > 0 then begin
      stage_forward t wn;
      for i = 0 to wn - 1 do
        let gid = t.work.(i) in
        incr recomputed;
        if Arena.equal t.stage i t.arr gid then t.n_cutoffs <- t.n_cutoffs + 1
        else begin
          save t k_arr gid;
          Arena.blit t.stage i t.arr gid;
          t.arr_dirty.(gid) <- true;
          t.touched.(!nt) <- gid;
          incr nt;
          mark_path_dirty t gid;
          if Circuit.is_po c gid then t.out_dirty <- true
        end
      done
    end
  done;
  t.n_propagated <- t.n_propagated + !recomputed;
  if !recomputed > t.n_max_cone then t.n_max_cone <- !recomputed;
  for k = 0 to !nt - 1 do
    t.arr_dirty.(t.touched.(k)) <- false
  done;
  (* hand the consumed delay dirt to the deferred backward/path queue *)
  List.iter
    (fun gid ->
      t.delay_pending.(gid) <- false;
      if not t.bwd_pending.(gid) then begin
        t.bwd_pending.(gid) <- true;
        t.pending_bwd <- gid :: t.pending_bwd
      end)
    pending;
  t.pending_delay <- []

(* Required-time view: S_g depends only on fanout delays and fanout S, so
   dirt spreads through the transitive fanin cones of the delay-changed
   gates — the mirror of [sync_forward], by decreasing level, below the
   highest pending gate.  Deferring this until path data is read lets a
   run of yield-only syncs (the optimizer's trial moves) skip the
   upstream half entirely. *)
let sync_backward t pending =
  let c = t.design.Design.circuit in
  let hi = List.fold_left (fun acc (g : int) -> if g > acc then g else acc) 0 pending in
  let nt = ref 0 and recomputed = ref 0 in
  for li = Array.length t.levels - 1 downto 0 do
    let level = t.levels.(li) in
    let wn = ref 0 in
    for k = 0 to upper_bound level hi - 1 do
      let gid = level.(k) in
      if any_flagged2 t.bwd_pending t.s_dirty c.Circuit.gates.(gid).Circuit.fanout then begin
        t.work.(!wn) <- gid;
        incr wn
      end
    done;
    let wn = !wn in
    if wn > 0 then begin
      stage_backward t wn;
      for i = 0 to wn - 1 do
        let gid = t.work.(i) in
        incr recomputed;
        if t.stage_live.(i) then begin
          if Arena.equal t.stage i t.bwd gid then t.n_cutoffs <- t.n_cutoffs + 1
          else begin
            save t k_bwd gid;
            Arena.blit t.stage i t.bwd gid;
            t.s_dirty.(gid) <- true;
            t.touched.(!nt) <- gid;
            incr nt;
            mark_path_dirty t gid
          end
        end
      done
    end
  done;
  t.n_bwd_propagated <- t.n_bwd_propagated + !recomputed;
  for k = 0 to !nt - 1 do
    t.s_dirty.(t.touched.(k)) <- false
  done;
  List.iter (fun gid -> t.bwd_pending.(gid) <- false) pending;
  t.pending_bwd <- []

(* The path moments of the path-dirty gates, four at a time, each
   saved before it is overwritten. *)
let path_clean t id =
  save t k_path id;
  t.path_dirty_flag.(id) <- false

let rec sync_paths t = function
  | a :: b :: c :: d :: rest ->
    path_clean t a;
    path_clean t b;
    path_clean t c;
    path_clean t d;
    Ssta.path_into4 ~arr:t.arr ~bwd:t.bwd a b c d ~mu:t.path_mu ~sigma:t.path_sigma;
    sync_paths t rest
  | id :: rest ->
    path_clean t id;
    Ssta.path_into ~arr:t.arr ~bwd:t.bwd id ~mu:t.path_mu ~sigma:t.path_sigma;
    sync_paths t rest
  | [] -> ()

let sync_impl ~paths t =
  t.n_syncs <- t.n_syncs + 1;
  (match t.pending_delay with [] -> () | pending -> sync_forward t pending);
  if t.out_dirty then begin
    save t k_cd 0;
    Ssta.circuit_delay_into t.design.Design.circuit ~arr:t.arr t.sc ~dst:t.cd 0;
    t.yield_ <- Canonical.cdf (circuit_delay t) t.tmax;
    t.out_dirty <- false
  end;
  if paths then begin
    (match t.pending_bwd with [] -> () | pending -> sync_backward t pending);
    sync_paths t t.path_dirty;
    t.path_dirty <- []
  end

let sync ?(paths = true) t =
  let p0 = t.n_propagated
  and b0 = t.n_bwd_propagated
  and c0 = t.n_cutoffs in
  Trace.span "ssta.sync" (fun () -> sync_impl ~paths t);
  Metrics.incr m_syncs;
  Metrics.add m_propagated (t.n_propagated - p0);
  Metrics.add m_bwd_propagated (t.n_bwd_propagated - b0);
  Metrics.add m_cutoffs (t.n_cutoffs - c0)

(* ---------------- checkpoint / commit / rollback ---------------- *)

let checkpoint t =
  (match t.cp with
  | Some _ -> invalid_arg "Incremental.checkpoint: one is already active"
  | None -> ());
  (* forward-synced is enough: deferred backward/path dirt is snapshotted
     and re-armed by rollback *)
  if t.pending_delay <> [] || t.out_dirty then
    invalid_arg "Incremental.checkpoint: state not synced";
  let s =
    { sv_yield = t.yield_; sv_pending_bwd = t.pending_bwd; sv_path_dirty = t.path_dirty }
  in
  (* a fresh epoch makes every earlier log mark stale *)
  t.epoch <- t.epoch + 1;
  t.cp <- Some s;
  s

let check_active t cp =
  match t.cp with
  | Some s when s == cp -> ()
  | _ -> invalid_arg "Incremental: checkpoint is not the active one"

let commit t cp =
  check_active t cp;
  t.log_nkeys <- 0;
  t.log_nwords <- 0;
  t.cp <- None

let rollback t cp =
  check_active t cp;
  (* the caller must already have restored the design assignment; we
     restore the timing view and drop any dirt accumulated since the
     checkpoint — the restored state was synced when it was taken *)
  replay_log t;
  t.yield_ <- cp.sv_yield;
  (* drop dirt accumulated since the checkpoint, then re-arm the deferred
     backward/path dirt that was already outstanding when it was taken *)
  clear_pending t;
  t.pending_bwd <- cp.sv_pending_bwd;
  List.iter (fun id -> t.bwd_pending.(id) <- true) cp.sv_pending_bwd;
  t.path_dirty <- cp.sv_path_dirty;
  List.iter (fun id -> t.path_dirty_flag.(id) <- true) cp.sv_path_dirty;
  t.cp <- None

(* ---------------- audit ---------------- *)

let audit t =
  let c = t.design.Design.circuit in
  let num_pcs = t.arr.Arena.num_pcs in
  let slots () = Arena.create ~n:t.n ~num_pcs in
  let delay = slots () and arr = slots () and bwd = slots () in
  let cd = Arena.create ~n:1 ~num_pcs and sc = Ssta.scratch ~num_pcs in
  Ssta.forward_into ~memo:t.memo ~jobs:t.jobs ~par_threshold:t.par_threshold t.design
    t.model ~delay ~arr;
  Ssta.circuit_delay_into c ~arr sc ~dst:cd 0;
  Ssta.backward_into ~jobs:t.jobs ~par_threshold:t.par_threshold c ~delay ~bwd;
  let mu = Array.make t.n 0.0 and sigma = Array.make t.n 0.0 in
  let ok = ref (Arena.equal cd 0 t.cd 0) in
  if not (Arena.bits_equal (Canonical.cdf (Arena.get cd 0) t.tmax) t.yield_) then
    ok := false;
  for id = 0 to t.n - 1 do
    Ssta.path_into ~arr ~bwd id ~mu ~sigma;
    if not (Arena.equal delay id t.delay id) then ok := false;
    if not (Arena.equal arr id t.arr id) then ok := false;
    if not (Arena.equal bwd id t.bwd id) then ok := false;
    if not (Arena.bits_equal mu.(id) t.path_mu.(id)) then ok := false;
    if not (Arena.bits_equal sigma.(id) t.path_sigma.(id)) then ok := false
  done;
  !ok
