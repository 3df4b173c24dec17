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

(* Bitwise float/canonical equality: the early-termination test.  Plain
   (=) would call NaN <> NaN and -0.0 = 0.0; comparing the IEEE bits makes
   "unchanged" mean exactly "a from-scratch analysis would have produced
   this word". *)
let feq (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ceq (a : Canonical.t) (b : Canonical.t) =
  feq a.Canonical.mean b.Canonical.mean
  && feq a.Canonical.rnd b.Canonical.rnd
  &&
  let ca = a.Canonical.coeffs and cb = b.Canonical.coeffs in
  Array.length ca = Array.length cb
  &&
  let ok = ref true in
  for k = 0 to Array.length ca - 1 do
    if not (feq ca.(k) cb.(k)) then ok := false
  done;
  !ok

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

(* Copy-on-write snapshot of everything a move batch may touch.  Canonical
   forms are immutable, so saving the array slot is enough. *)
type checkpoint = {
  sv_delay : (int, Canonical.t) Hashtbl.t;
  sv_arrival : (int, Canonical.t) Hashtbl.t;
  sv_bwd : (int, Canonical.t) Hashtbl.t;
  sv_path : (int, float * float) Hashtbl.t;
  sv_circuit_delay : Canonical.t;
  sv_yield : float;
  (* deferred backward/path dirt carried into the checkpoint: a rollback
     must re-arm it, or the pre-checkpoint repairs would be lost *)
  sv_pending_bwd : int list;
  sv_path_dirty : int list;
}

type t = {
  design : Design.t;
  model : Model.t;
  memo : Memo.t;
  tmax : float;
  n : int;
  jobs : int;
  par_threshold : int;
  levels : int array array;
  zero : Canonical.t;
  gate_delay : Canonical.t array;
  arrival : Canonical.t array;
  bwd : Canonical.t array;
  path_mu : float array;
  path_sigma : float array;
  mutable circuit_delay : Canonical.t;
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
  (* per-propagation scratch, always cleared before returning *)
  arr_dirty : bool array;
  s_dirty : bool array;
  (* level-batch scratch for the two-phase sync scans: the gates of the
     current level that must recompute, and their freshly computed forms
     (buf_ok false marks a dead gate's None) *)
  work : int array;
  buf : Canonical.t array;
  buf_ok : bool array;
  mutable cp : checkpoint option;
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
let circuit_delay t = t.circuit_delay
let arrival t id = t.arrival.(id)
let required t id = t.bwd.(id)
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

(* ---------------- exact recomputation kernels ----------------

   These replay, expression for expression, the folds of Ssta.analyze and
   Ssta.backward.  Because Canonical.add/max2 are pure, recomputing a gate
   whose inputs are unchanged yields the identical words — which is what
   makes skipping unchanged gates sound. *)

let recompute_arrival t (g : Circuit.gate) =
  let worst =
    match Array.to_list g.Circuit.fanin with
    | [] -> t.zero
    | f :: rest ->
      List.fold_left (fun acc f' -> Canonical.max2 acc t.arrival.(f')) t.arrival.(f) rest
  in
  Canonical.add worst t.gate_delay.(g.Circuit.id)

let recompute_bwd t (g : Circuit.gate) =
  let terms =
    Array.to_list g.Circuit.fanout
    |> List.map (fun fo -> Canonical.add t.gate_delay.(fo) t.bwd.(fo))
  in
  let terms =
    if Circuit.is_po t.design.Design.circuit g.Circuit.id then t.zero :: terms
    else terms
  in
  match terms with
  | [] -> None (* dead gate: backward stays zero forever *)
  | tm :: rest -> Some (List.fold_left Canonical.max2 tm rest)

let recompute_circuit_delay t =
  let c = t.design.Design.circuit in
  match Array.to_list c.Circuit.outputs with
  | [] -> t.zero
  | o :: rest ->
    List.fold_left (fun acc o' -> Canonical.max2 acc t.arrival.(o')) t.arrival.(o) rest

(* ---------------- checkpoint plumbing ---------------- *)

let save_delay t id =
  match t.cp with
  | None -> ()
  | Some s -> if not (Hashtbl.mem s.sv_delay id) then Hashtbl.add s.sv_delay id t.gate_delay.(id)

let save_arrival t id =
  match t.cp with
  | None -> ()
  | Some s -> if not (Hashtbl.mem s.sv_arrival id) then Hashtbl.add s.sv_arrival id t.arrival.(id)

let save_bwd t id =
  match t.cp with
  | None -> ()
  | Some s -> if not (Hashtbl.mem s.sv_bwd id) then Hashtbl.add s.sv_bwd id t.bwd.(id)

let save_path t id =
  match t.cp with
  | None -> ()
  | Some s ->
    if not (Hashtbl.mem s.sv_path id) then
      Hashtbl.add s.sv_path id (t.path_mu.(id), t.path_sigma.(id))

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

let recompute_all t =
  let res =
    Ssta.analyze ~memo:t.memo ~jobs:t.jobs ~par_threshold:t.par_threshold
      t.design t.model
  in
  Array.blit res.Ssta.gate_delay 0 t.gate_delay 0 t.n;
  Array.blit res.Ssta.arrival 0 t.arrival 0 t.n;
  t.circuit_delay <- res.Ssta.circuit_delay;
  let bwd =
    Ssta.backward ~jobs:t.jobs ~par_threshold:t.par_threshold
      t.design.Design.circuit res
  in
  Array.blit bwd 0 t.bwd 0 t.n;
  (* per-gate path moments are independent, and float-array slots are
     written at most once per index: safe to chunk across domains *)
  Parallel.run_chunks ~jobs:t.jobs ~threshold:t.par_threshold ~n:t.n
    ~init:(fun () -> ())
    (fun () lo hi ->
      for id = lo to hi - 1 do
        let p = Ssta.path_through res ~backward:bwd id in
        t.path_mu.(id) <- p.Canonical.mean;
        t.path_sigma.(id) <- Canonical.sigma p
      done);
  t.yield_ <- Ssta.timing_yield res ~tmax:t.tmax;
  clear_pending t

let create ?memo ?(jobs = 1) ?(par_threshold = Ssta.default_par_threshold)
    (d : Design.t) model ~tmax =
  let memo = match memo with Some m -> m | None -> Memo.create d.Design.lib in
  let n = Circuit.num_gates d.Design.circuit in
  let num_pcs = Model.num_pcs model in
  let zero = Canonical.constant ~num_pcs 0.0 in
  let t =
    {
      design = d;
      model;
      memo;
      tmax;
      n;
      jobs = (if jobs < 1 then invalid_arg "Incremental.create: jobs < 1" else jobs);
      par_threshold;
      levels = Circuit.levels d.Design.circuit;
      zero;
      gate_delay = Array.make n zero;
      arrival = Array.make n zero;
      bwd = Array.make n zero;
      path_mu = Array.make n 0.0;
      path_sigma = Array.make n 0.0;
      circuit_delay = zero;
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
      work = Array.make n 0;
      buf = Array.make n zero;
      buf_ok = Array.make n false;
      cp = None;
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
  let g = Circuit.gate c id in
  (* A threshold move changes only this gate's delay; a size move also
     changes its drive, its self-load, and the load seen by each fanin.
     Re-deriving the canonical delay of the gate plus its fanins covers
     both; unchanged fanins compare bit-equal and seed nothing.

     Propagation is deferred: the optimizer never reads arrivals between
     refresh points, so arrivals are repaired once per batch in [sync] over
     the union cone of every pending gate — an applied-then-undone move
     costs one cheap delay re-derivation here, not a cone walk. *)
  let refresh_delay gid =
    let gg = Circuit.gate c gid in
    if gg.Circuit.kind <> Cell_kind.Pi then begin
      let nd = Ssta.gate_delay_canonical ~memo:t.memo t.design t.model gid in
      if not (ceq nd t.gate_delay.(gid)) then begin
        save_delay t gid;
        t.gate_delay.(gid) <- nd;
        if not t.delay_pending.(gid) then begin
          t.delay_pending.(gid) <- true;
          t.pending_delay <- gid :: t.pending_delay
        end
      end
    end
  in
  refresh_delay id;
  Array.iter refresh_delay g.Circuit.fanin

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

(* Run the compute phase of one level batch: [t.buf.(i)] (and for the
   backward pass [t.buf_ok.(i)]) for the [wn] gates staged in [t.work].
   Every staged gate reads only slots finalized by earlier levels and
   writes only its own [buf] slot, so the chunked parallel schedule
   produces the same words as the inline loop — the commit phase that
   follows is sequential either way. *)
let run_level_batch t ~wn compute =
  if wn > t.n_max_level_width then t.n_max_level_width <- wn;
  if t.jobs > 1 && wn >= t.par_threshold then begin
    t.n_par_levels <- t.n_par_levels + 1;
    Parallel.run_chunks ~jobs:t.jobs ~threshold:t.par_threshold ~n:wn
      ~init:(fun () -> ())
      (fun () lo hi ->
        for i = lo to hi - 1 do
          compute i
        done)
  end
  else begin
    t.n_seq_levels <- t.n_seq_levels + 1;
    for i = 0 to wn - 1 do
      compute i
    done
  end

let sync_impl ~paths t =
  t.n_syncs <- t.n_syncs + 1;
  (match t.pending_delay with
  | [] -> ()
  | pending ->
    let c = t.design.Design.circuit in
    (* arrival view: dirt spreads downstream from every delay-changed gate,
       repaired in one increasing-id pass over the union of their fanout
       cones.  A gate recomputes iff its own delay is pending or a fanin's
       arrival moved; a recompute that comes back bit-identical cuts the
       cone off right there. *)
    (* gate ids are a topological order, so dirt can only spread to ids
       above the lowest pending gate; the dirty-frontier test below exactly
       delimits the union fanout cone without materializing it *)
    let lo = List.fold_left (fun acc gid -> if gid < acc then gid else acc)
        (t.n - 1) pending in
    let touched = ref [] in
    let recomputed = ref 0 in
    (* level-by-level two-phase repair: stage the level's must-recompute
       gates (their fanins sit at strictly lower levels, already
       committed), compute the new arrivals — on domains when the batch
       is wide — then commit sequentially in ascending id order, exactly
       the order the flat id sweep used to visit them *)
    Array.iter
      (fun level ->
        let len = Array.length level in
        let wn = ref 0 in
        for k = lower_bound level lo to len - 1 do
          let gid = level.(k) in
          let gg = Circuit.gate c gid in
          if gg.Circuit.kind <> Cell_kind.Pi then begin
            let must =
              t.delay_pending.(gid)
              || Array.exists (fun f -> t.arr_dirty.(f)) gg.Circuit.fanin
            in
            if must then begin
              t.work.(!wn) <- gid;
              incr wn
            end
          end
        done;
        let wn = !wn in
        if wn > 0 then begin
          run_level_batch t ~wn (fun i ->
              t.buf.(i) <- recompute_arrival t (Circuit.gate c t.work.(i)));
          for i = 0 to wn - 1 do
            let gid = t.work.(i) in
            incr recomputed;
            let na = t.buf.(i) in
            if ceq na t.arrival.(gid) then t.n_cutoffs <- t.n_cutoffs + 1
            else begin
              save_arrival t gid;
              t.arrival.(gid) <- na;
              t.arr_dirty.(gid) <- true;
              touched := gid :: !touched;
              mark_path_dirty t gid;
              if Circuit.is_po c gid then t.out_dirty <- true
            end
          done
        end)
      t.levels;
    t.n_propagated <- t.n_propagated + !recomputed;
    if !recomputed > t.n_max_cone then t.n_max_cone <- !recomputed;
    List.iter (fun gid -> t.arr_dirty.(gid) <- false) !touched;
    (* hand the consumed delay dirt to the deferred backward/path queue *)
    List.iter
      (fun gid ->
        t.delay_pending.(gid) <- false;
        if not t.bwd_pending.(gid) then begin
          t.bwd_pending.(gid) <- true;
          t.pending_bwd <- gid :: t.pending_bwd
        end)
      pending;
    t.pending_delay <- []);
  if t.out_dirty then begin
    t.circuit_delay <- recompute_circuit_delay t;
    t.out_dirty <- false
  end;
  t.yield_ <- Canonical.cdf t.circuit_delay t.tmax;
  if paths then begin
    (match t.pending_bwd with
    | [] -> ()
    | pending ->
      (* required-time view: S_g depends only on fanout delays and fanout
         S, so dirt spreads through transitive fanin cones of the
         delay-changed gates, repaired in decreasing id order.  Deferring
         this until path data is read lets a run of yield-only syncs (the
         optimizer's trial moves) skip the upstream half entirely. *)
      let c = t.design.Design.circuit in
      (* dirt spreads upstream only: every recompute sits below the highest
         pending gate, and the frontier test delimits the union fanin cone *)
      let hi = List.fold_left (fun acc gid -> if gid > acc then gid else acc)
          0 pending in
      let touched = ref [] in
      let recomputed = ref 0 in
      (* mirror of the forward repair, by decreasing level: a gate's
         fanouts sit at strictly higher levels, committed in earlier
         iterations, so each staged batch reads only finalized slots *)
      for li = Array.length t.levels - 1 downto 0 do
        let level = t.levels.(li) in
        let wn = ref 0 in
        for k = 0 to upper_bound level hi - 1 do
          let gid = level.(k) in
          let gg = Circuit.gate c gid in
          let must =
            Array.exists
              (fun fo -> t.bwd_pending.(fo) || t.s_dirty.(fo))
              gg.Circuit.fanout
          in
          if must then begin
            t.work.(!wn) <- gid;
            incr wn
          end
        done;
        let wn = !wn in
        if wn > 0 then begin
          run_level_batch t ~wn (fun i ->
              match recompute_bwd t (Circuit.gate c t.work.(i)) with
              | None -> t.buf_ok.(i) <- false
              | Some ns ->
                t.buf.(i) <- ns;
                t.buf_ok.(i) <- true);
          for i = 0 to wn - 1 do
            let gid = t.work.(i) in
            incr recomputed;
            if t.buf_ok.(i) then begin
              let ns = t.buf.(i) in
              if ceq ns t.bwd.(gid) then t.n_cutoffs <- t.n_cutoffs + 1
              else begin
                save_bwd t gid;
                t.bwd.(gid) <- ns;
                t.s_dirty.(gid) <- true;
                touched := gid :: !touched;
                mark_path_dirty t gid
              end
            end
          done
        end
      done;
      t.n_bwd_propagated <- t.n_bwd_propagated + !recomputed;
      List.iter (fun gid -> t.s_dirty.(gid) <- false) !touched;
      List.iter (fun gid -> t.bwd_pending.(gid) <- false) pending;
      t.pending_bwd <- []);
    List.iter
      (fun id ->
        save_path t id;
        let p = Canonical.add t.arrival.(id) t.bwd.(id) in
        t.path_mu.(id) <- p.Canonical.mean;
        t.path_sigma.(id) <- Canonical.sigma p;
        t.path_dirty_flag.(id) <- false)
      t.path_dirty;
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
    {
      sv_delay = Hashtbl.create 16;
      sv_arrival = Hashtbl.create 16;
      sv_bwd = Hashtbl.create 16;
      sv_path = Hashtbl.create 16;
      sv_circuit_delay = t.circuit_delay;
      sv_yield = t.yield_;
      sv_pending_bwd = t.pending_bwd;
      sv_path_dirty = t.path_dirty;
    }
  in
  t.cp <- Some s;
  s

let check_active t cp =
  match t.cp with
  | Some s when s == cp -> ()
  | _ -> invalid_arg "Incremental: checkpoint is not the active one"

let commit t cp =
  check_active t cp;
  t.cp <- None

let rollback t cp =
  check_active t cp;
  (* the caller must already have restored the design assignment; we
     restore the timing view and drop any dirt accumulated since the
     checkpoint — the restored state was synced when it was taken *)
  Hashtbl.iter (fun id v -> t.gate_delay.(id) <- v) cp.sv_delay;
  Hashtbl.iter (fun id v -> t.arrival.(id) <- v) cp.sv_arrival;
  Hashtbl.iter (fun id v -> t.bwd.(id) <- v) cp.sv_bwd;
  Hashtbl.iter
    (fun id (m, s) ->
      t.path_mu.(id) <- m;
      t.path_sigma.(id) <- s)
    cp.sv_path;
  t.circuit_delay <- cp.sv_circuit_delay;
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
  let res =
    Ssta.analyze ~memo:t.memo ~jobs:t.jobs ~par_threshold:t.par_threshold
      t.design t.model
  in
  let bwd =
    Ssta.backward ~jobs:t.jobs ~par_threshold:t.par_threshold
      t.design.Design.circuit res
  in
  let ok = ref (ceq res.Ssta.circuit_delay t.circuit_delay) in
  if not (feq (Ssta.timing_yield res ~tmax:t.tmax) t.yield_) then ok := false;
  for id = 0 to t.n - 1 do
    if not (ceq res.Ssta.gate_delay.(id) t.gate_delay.(id)) then ok := false;
    if not (ceq res.Ssta.arrival.(id) t.arrival.(id)) then ok := false;
    if not (ceq bwd.(id) t.bwd.(id)) then ok := false;
    let p = Ssta.path_through res ~backward:bwd id in
    if not (feq p.Canonical.mean t.path_mu.(id)) then ok := false;
    if not (feq (Canonical.sigma p) t.path_sigma.(id)) then ok := false
  done;
  !ok
