module Circuit = Sl_netlist.Circuit
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Model = Sl_variation.Model
module Parallel = Sl_util.Parallel
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

(* Process-global families, shared by every live engine (same pattern as
   the Incremental counters). *)
let m_partitions =
  Metrics.gauge ~help:"Cones of the last incremental SSTA engine"
    "statleak_hier_partitions"

let m_dirty_parts =
  Metrics.counter ~help:"Cones re-timed by engine syncs"
    "statleak_hier_dirty_partitions_total"

let m_part_sync =
  Metrics.histogram ~help:"Per-cone sync latency, seconds" ~bins:20
    ~lo:0.0 ~hi:0.1 "statleak_hier_part_sync_seconds"

(* One timing cone: its ascending global gate ids, the design it times
   and an incremental engine over it.  A register cone's [sub] mirrors
   the global assignment; the one cone's [sub] is the design itself.
   [fwd_dirty] marks updates not yet synced; [bwd_deferred] marks a
   yield-only sync whose backward/path repair is still queued inside
   [inc]. *)
type part = {
  ids : int array;
  sub : Design.t;
  inc : Incremental.t;
  mutable fwd_dirty : bool;
  mutable bwd_deferred : bool;
}

(* Besides the cones' own checkpoints: the deferred dirt carried into it
   and the gates mirrored under it.  The circuit delay and yield need no
   copy — they are a function of the cones' arrivals, which the cone
   rollbacks restore. *)
type checkpoint = {
  cps : Incremental.checkpoint array;
  sv_bwd_deferred : bool array;
  mutable touched : int list; (* global ids mirrored under this cp *)
}

type t = {
  design : Design.t;
  tmax : float;
  jobs : int;
  parts : part array;
  part_of : int array;
  local_of : int array;
  (* the global per-gate worst-path moments and the one-slot circuit
     delay: scattered and stitched from register cones, the one cone's
     own otherwise; the optimizer aliases the path arrays *)
  path_mu : float array;
  path_sigma : float array;
  cd : Arena.t;
  frame : Canonical.frame;
  mutable yield_ : float;
  mutable cp : checkpoint option;
}

let design t = t.design
let yield t = t.yield_
let circuit_delay t = Arena.get t.cd 0
let num_partitions t = Array.length t.parts
let path_mu t = t.path_mu
let path_sigma t = t.path_sigma

(* With no register cut the engine is one cone over the design itself:
   its path arrays and circuit delay are the engine's, so there is
   nothing to mirror, scatter or stitch. *)
let one_cone t = Array.length t.parts = 1

let arrival t gid =
  Incremental.arrival t.parts.(t.part_of.(gid)).inc t.local_of.(gid)

let required t gid =
  Incremental.required t.parts.(t.part_of.(gid)).inc t.local_of.(gid)

(* Copy gate [gid]'s assignment into its register cone's sub-design. *)
let mirror t gid =
  let sub = t.parts.(t.part_of.(gid)).sub and l = t.local_of.(gid) and d = t.design in
  sub.Design.vth_idx.(l) <- d.Design.vth_idx.(gid);
  sub.Design.size_idx.(l) <- d.Design.size_idx.(gid);
  sub.Design.extra_load.(l) <- d.Design.extra_load.(gid)

let scatter_paths t (p : part) =
  if not (one_cone t) then begin
    let mu = Incremental.path_mu p.inc and sg = Incremental.path_sigma p.inc in
    Array.iteri
      (fun l gid ->
        t.path_mu.(gid) <- mu.(l);
        t.path_sigma.(gid) <- sg.(l))
      p.ids
  end

(* The boundary macromodels ARE the per-cone arrival forms at the cut
   nets; stitching replays the whole-design circuit-delay fold — same
   global output order, bit-identical operands read straight from each
   cone's arrival slots — so the stitched delay and yield match the one
   cone's words. *)
let fold_outputs t f (dst : Arena.t) =
  let outs = t.design.Design.circuit.Circuit.outputs in
  let slots o = Incremental.arrival_slots t.parts.(t.part_of.(o)).inc in
  if Array.length outs = 0 then Arena.zero dst 0
  else begin
    Arena.blit (slots outs.(0)) t.local_of.(outs.(0)) dst 0;
    for k = 1 to Array.length outs - 1 do
      let o = outs.(k) in
      Arena.max2 f dst 0 (slots o) t.local_of.(o) ~dst 0
    done
  end

let stitch t =
  if one_cone t then t.yield_ <- Incremental.yield t.parts.(0).inc
  else begin
    fold_outputs t t.frame t.cd;
    t.yield_ <- Canonical.cdf (circuit_delay t) t.tmax
  end

let boundary t =
  let c = t.design.Design.circuit in
  Array.map
    (fun o -> ((Circuit.gate c o).Circuit.name, arrival t o))
    c.Circuit.outputs

let sub_design (d : Design.t) circuit ids =
  {
    Design.lib = d.Design.lib;
    circuit;
    vth_idx = Array.map (fun gid -> d.Design.vth_idx.(gid)) ids;
    size_idx = Array.map (fun gid -> d.Design.size_idx.(gid)) ids;
    extra_load = Array.map (fun gid -> d.Design.extra_load.(gid)) ids;
  }

(* Register cones need a memo that worker domains may read: an unfrozen
   (or absent) one is prefilled and frozen here, while a frozen one that
   does not cover the design cannot serve it at all.  [None] when there
   is no cut or no usable memo. *)
let register_cut memo (d : Design.t) =
  match Circuit.partition_at_registers d.Design.circuit with
  | None -> None
  | Some pt -> (
    match memo with
    | Some m when Memo.frozen m -> if Memo.covers m d then Some (pt, m) else None
    | _ ->
      let m = match memo with Some m -> m | None -> Memo.create d.Design.lib in
      Memo.prefill m d;
      Memo.freeze m;
      Some (pt, m))

let part ids sub inc = { ids; sub; inc; fwd_dirty = false; bwd_deferred = false }

(* Cones, not levels, are the unit of parallelism: each cone engine is
   sequential (jobs=1), and their creation fans out across domains — safe
   because the memo is frozen and each task writes only its own slot. *)
let cones ~memo ~jobs (d : Design.t) model ~tmax (pt : Circuit.partition) =
  let n = Circuit.num_gates d.Design.circuit in
  let nparts = Array.length pt.Circuit.parts in
  let subs =
    Array.init nparts (fun p -> sub_design d pt.Circuit.parts.(p) pt.Circuit.part_ids.(p))
  in
  let incs = Array.make nparts None in
  Parallel.for_ ~jobs ~tasks:nparts (fun p ->
      incs.(p) <-
        Some
          (Incremental.create ~memo ~jobs:1 subs.(p)
             (Model.restrict model pt.Circuit.part_ids.(p))
             ~tmax));
  let t =
    {
      design = d;
      tmax;
      jobs;
      parts =
        Array.init nparts (fun p ->
            part pt.Circuit.part_ids.(p) subs.(p) (Option.get incs.(p)));
      part_of = pt.Circuit.part_of;
      local_of = pt.Circuit.local_of;
      path_mu = Array.make n 0.0;
      path_sigma = Array.make n 0.0;
      cd = Arena.create ~n:1 ~num_pcs:(Model.num_pcs model);
      frame = Canonical.frame ();
      yield_ = 0.0;
      cp = None;
    }
  in
  Array.iter (scatter_paths t) t.parts;
  t

(* The one cone: the design itself over the whole model, level-parallel
   on [jobs] domains.  A frozen memo that cannot serve the design is left
   out, so the cone fills a fresh one. *)
let whole ?memo ~jobs (d : Design.t) model ~tmax =
  let memo =
    match memo with Some m when Memo.frozen m && not (Memo.covers m d) -> None | m -> m
  in
  let inc = Incremental.create ?memo ~jobs d model ~tmax in
  let n = Circuit.num_gates d.Design.circuit in
  let ids = Array.init n Fun.id in
  {
    design = d;
    tmax;
    jobs;
    parts = [| part ids d inc |];
    part_of = Array.make n 0;
    local_of = ids;
    path_mu = Incremental.path_mu inc;
    path_sigma = Incremental.path_sigma inc;
    cd = Incremental.circuit_delay_slot inc;
    frame = Canonical.frame ();
    yield_ = 0.0;
    cp = None;
  }

let create ?memo ?(jobs = 1) ?(partition = false) (d : Design.t) model ~tmax =
  if jobs < 1 then invalid_arg "Hier.create: jobs < 1";
  Trace.span "hier.create" (fun () ->
      let t =
        match if partition then register_cut memo d else None with
        | Some (pt, memo) -> cones ~memo ~jobs d model ~tmax pt
        | None -> whole ?memo ~jobs d model ~tmax
      in
      stitch t;
      Metrics.set m_partitions (float_of_int (num_partitions t));
      t)

let update_gate t gid =
  if not (one_cone t) then begin
    mirror t gid;
    match t.cp with None -> () | Some cp -> cp.touched <- gid :: cp.touched
  end;
  let p = t.parts.(t.part_of.(gid)) in
  p.fwd_dirty <- true;
  Incremental.update_gate p.inc t.local_of.(gid)

let needs_sync ~paths p = p.fwd_dirty || (paths && p.bwd_deferred)

let sync_part ~paths p =
  let t0 = Unix.gettimeofday () in
  Incremental.sync ~paths p.inc;
  Metrics.observe m_part_sync (Unix.gettimeofday () -. t0)

let sync ?(paths = true) t =
  Trace.span "hier.sync" (fun () ->
      let np = Array.length t.parts in
      let dirty = ref 0 and last = ref 0 and any_fwd = ref false in
      for i = 0 to np - 1 do
        let p = t.parts.(i) in
        if needs_sync ~paths p then begin
          incr dirty;
          last := i;
          if p.fwd_dirty then any_fwd := true
        end
      done;
      let dirty = !dirty in
      if dirty > 0 then begin
        Metrics.add m_dirty_parts dirty;
        (* a lone dirty cone syncs directly ([for_]'s closures cost 10
           words, past the engine's allocation budget); cones share no
           gates, so several run one writer each, the same words at any jobs *)
        if dirty = 1 then sync_part ~paths t.parts.(!last)
        else
          Parallel.for_ ~jobs:(Stdlib.min t.jobs dirty) ~tasks:np (fun i ->
              let p = t.parts.(i) in
              if needs_sync ~paths p then sync_part ~paths p);
        for i = 0 to np - 1 do
          let p = t.parts.(i) in
          if needs_sync ~paths p then begin
            if paths then begin
              scatter_paths t p;
              p.bwd_deferred <- false
            end
            else p.bwd_deferred <- true;
            p.fwd_dirty <- false
          end
        done;
        (* the yield is a function of the circuit delay alone *)
        if !any_fwd then stitch t
      end)

let rebuild t =
  (match t.cp with
  | Some _ -> invalid_arg "Hier.rebuild: a checkpoint is active"
  | None -> ());
  Trace.span "hier.rebuild" (fun () ->
      if not (one_cone t) then
        for gid = 0 to Array.length t.part_of - 1 do
          mirror t gid
        done;
      let np = Array.length t.parts in
      Parallel.for_ ~jobs:t.jobs ~tasks:np (fun i ->
          Incremental.rebuild t.parts.(i).inc);
      Array.iter
        (fun p ->
          p.fwd_dirty <- false;
          p.bwd_deferred <- false;
          scatter_paths t p)
        t.parts;
      stitch t)

let checkpoint t =
  (match t.cp with
  | Some _ -> invalid_arg "Hier.checkpoint: one is already active"
  | None -> ());
  Array.iter
    (fun p ->
      if p.fwd_dirty then invalid_arg "Hier.checkpoint: state not synced")
    t.parts;
  let cp =
    {
      cps = Array.map (fun p -> Incremental.checkpoint p.inc) t.parts;
      sv_bwd_deferred = Array.map (fun p -> p.bwd_deferred) t.parts;
      touched = [];
    }
  in
  t.cp <- Some cp;
  cp

let check_active t cp =
  match t.cp with
  | Some s when s == cp -> ()
  | _ -> invalid_arg "Hier: checkpoint is not the active one"

let commit t cp =
  check_active t cp;
  Array.iteri (fun i p -> Incremental.commit p.inc cp.cps.(i)) t.parts;
  t.cp <- None

let rollback t cp =
  check_active t cp;
  (* the caller has already restored the global design assignment;
     re-mirror every gate touched under the checkpoint before the cone
     engines restore their timing views *)
  List.iter (mirror t) cp.touched;
  Array.iteri
    (fun i p ->
      Incremental.rollback p.inc cp.cps.(i);
      p.fwd_dirty <- false;
      p.bwd_deferred <- cp.sv_bwd_deferred.(i);
      scatter_paths t p)
    t.parts;
  stitch t;
  t.cp <- None

let audit t =
  Array.for_all (fun p -> Incremental.audit p.inc) t.parts
  &&
  let cd = Arena.create ~n:1 ~num_pcs:t.cd.Arena.num_pcs in
  fold_outputs t (Canonical.frame ()) cd;
  Arena.equal cd 0 t.cd 0
  && Arena.bits_equal (Canonical.cdf (Arena.get cd 0) t.tmax) t.yield_

let stats t =
  let all = Array.map (fun p -> Incremental.stats p.inc) t.parts in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 all
  and top f = Array.fold_left (fun acc s -> Stdlib.max acc (f s)) 0 all in
  Incremental.
    {
      updates = sum (fun s -> s.updates);
      syncs = sum (fun s -> s.syncs);
      rebuilds = sum (fun s -> s.rebuilds);
      propagated = sum (fun s -> s.propagated);
      bwd_propagated = sum (fun s -> s.bwd_propagated);
      cutoffs = sum (fun s -> s.cutoffs);
      max_cone = top (fun s -> s.max_cone);
      par_levels = sum (fun s -> s.par_levels);
      seq_levels = sum (fun s -> s.seq_levels);
      max_level_width = top (fun s -> s.max_level_width);
    }

(* ---------------- one-shot partitioned analysis ---------------- *)

let analyze ?memo ?(jobs = 1) (d : Design.t) model =
  if jobs < 1 then invalid_arg "Hier.analyze: jobs < 1";
  match register_cut memo d with
  | None -> None
  | Some (pt, memo) ->
    Trace.span "hier.analyze" (fun () ->
        let n = Circuit.num_gates d.Design.circuit in
        let num_pcs = Model.num_pcs model in
        let zero = Canonical.constant ~num_pcs 0.0 in
        let gate_delay = Array.make n zero in
        let arrival = Array.make n zero in
        let nparts = Array.length pt.Circuit.parts in
        Parallel.for_ ~jobs ~tasks:nparts (fun p ->
            let ids = pt.Circuit.part_ids.(p) in
            let sub = sub_design d pt.Circuit.parts.(p) ids in
            let res = Ssta.analyze ~memo ~jobs:1 sub (Model.restrict model ids) in
            Array.iteri
              (fun l gid ->
                gate_delay.(gid) <- res.Ssta.gate_delay.(l);
                arrival.(gid) <- res.Ssta.arrival.(l))
              ids);
        let circuit_delay =
          match Array.to_list d.Design.circuit.Circuit.outputs with
          | [] -> zero
          | o :: rest ->
            List.fold_left
              (fun acc o' -> Canonical.max2 acc arrival.(o'))
              arrival.(o) rest
        in
        Metrics.set m_partitions (float_of_int nparts);
        Some { Ssta.gate_delay; arrival; circuit_delay })
