module Circuit = Sl_netlist.Circuit
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Model = Sl_variation.Model
module Parallel = Sl_util.Parallel
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

(* Process-global families, shared by every live hierarchical engine
   (same pattern as the Incremental counters). *)
let m_partitions =
  Metrics.gauge ~help:"Partitions of the last hierarchical SSTA engine"
    "statleak_hier_partitions"

let m_dirty_parts =
  Metrics.counter ~help:"Partitions re-timed by hierarchical syncs"
    "statleak_hier_dirty_partitions_total"

let m_part_sync =
  Metrics.histogram ~help:"Per-partition sync latency, seconds" ~bins:20
    ~lo:0.0 ~hi:0.1 "statleak_hier_part_sync_seconds"

(* One register-boundary cone: its ascending global gate ids, a
   sub-design mirroring the global assignment, and a sequential
   incremental engine over it.  [fwd_dirty] marks updates not yet
   synced; [bwd_deferred] marks a yield-only sync whose backward/path
   repair is still queued inside [inc]. *)
type part = {
  ids : int array;
  sub : Design.t;
  inc : Incremental.t;
  mutable fwd_dirty : bool;
  mutable bwd_deferred : bool;
}

type checkpoint = {
  cps : Incremental.checkpoint array; (* one per part, taken eagerly *)
  sv_cd : Canonical.t;
  sv_yield : float;
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
  (* global per-gate worst-path moments, scattered from the parts; the
     optimizer aliases these arrays exactly like the flat engine's *)
  path_mu : float array;
  path_sigma : float array;
  cd : Arena.t; (* one slot: the stitched circuit delay *)
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

let arrival t gid =
  Incremental.arrival t.parts.(t.part_of.(gid)).inc t.local_of.(gid)

let required t gid =
  Incremental.required t.parts.(t.part_of.(gid)).inc t.local_of.(gid)

let scatter_paths t (p : part) =
  let mu = Incremental.path_mu p.inc and sg = Incremental.path_sigma p.inc in
  Array.iteri
    (fun l gid ->
      t.path_mu.(gid) <- mu.(l);
      t.path_sigma.(gid) <- sg.(l))
    p.ids

(* The boundary macromodels ARE the per-part arrival forms at the cut
   nets; stitching replays the exact circuit-delay fold of the flat
   engine — same global output order, bit-identical operands read
   straight from each cone's arrival slots — so the stitched delay and
   yield match the flat words. *)
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
  fold_outputs t t.frame t.cd;
  t.yield_ <- Canonical.cdf (circuit_delay t) t.tmax

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

(* The memo must be frozen before part engines run on worker domains; a
   frozen table that does not cover the design cannot serve it at all,
   so the caller gets [None] and should stay flat. *)
let usable_memo memo (d : Design.t) =
  match memo with
  | Some m when Memo.frozen m -> if Memo.covers m d then Some m else None
  | Some m ->
    Memo.prefill m d;
    Memo.freeze m;
    Some m
  | None ->
    let m = Memo.create d.Design.lib in
    Memo.prefill m d;
    Memo.freeze m;
    Some m

let create ?memo ?(jobs = 1) (d : Design.t) model ~tmax =
  if jobs < 1 then invalid_arg "Hier.create: jobs < 1";
  match Circuit.partition_at_registers d.Design.circuit with
  | None -> None
  | Some pt -> (
    match usable_memo memo d with
    | None -> None
    | Some memo ->
      Trace.span "hier.create" (fun () ->
          let n = Circuit.num_gates d.Design.circuit in
          let nparts = Array.length pt.Circuit.parts in
          let subs =
            Array.init nparts (fun p ->
                sub_design d pt.Circuit.parts.(p) pt.Circuit.part_ids.(p))
          in
          (* partitions, not levels, are the unit of parallelism: each
             part engine is sequential (jobs=1), and their creation fans
             out across domains — safe because the memo is frozen and
             each task writes only its own slot *)
          let incs = Array.make nparts None in
          Parallel.for_ ~jobs:(Stdlib.min jobs nparts) ~tasks:nparts (fun p ->
              incs.(p) <-
                Some
                  (Incremental.create ~memo ~jobs:1 subs.(p)
                     (Model.restrict model pt.Circuit.part_ids.(p))
                     ~tmax));
          let parts =
            Array.init nparts (fun p ->
                {
                  ids = pt.Circuit.part_ids.(p);
                  sub = subs.(p);
                  inc = Option.get incs.(p);
                  fwd_dirty = false;
                  bwd_deferred = false;
                })
          in
          let t =
            {
              design = d;
              tmax;
              jobs;
              parts;
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
          Array.iter (fun p -> scatter_paths t p) parts;
          stitch t;
          Metrics.set m_partitions (float_of_int nparts);
          Some t))

let update_gate t gid =
  let p = t.parts.(t.part_of.(gid)) in
  let l = t.local_of.(gid) in
  let d = t.design in
  p.sub.Design.vth_idx.(l) <- d.Design.vth_idx.(gid);
  p.sub.Design.size_idx.(l) <- d.Design.size_idx.(gid);
  p.sub.Design.extra_load.(l) <- d.Design.extra_load.(gid);
  (match t.cp with None -> () | Some cp -> cp.touched <- gid :: cp.touched);
  p.fwd_dirty <- true;
  Incremental.update_gate p.inc l

let sync ?(paths = true) t =
  Trace.span "hier.sync" (fun () ->
      let sel =
        Array.of_list
          (Array.fold_right
             (fun p acc ->
               if p.fwd_dirty || (paths && p.bwd_deferred) then p :: acc
               else acc)
             t.parts [])
      in
      let ns = Array.length sel in
      if ns > 0 then begin
        Metrics.add m_dirty_parts ns;
        let any_fwd = Array.exists (fun p -> p.fwd_dirty) sel in
        (* partitions share no gates: one writer per part, results
           bit-identical for every jobs value *)
        Parallel.for_ ~jobs:(Stdlib.min t.jobs ns) ~tasks:ns (fun i ->
            let t0 = Unix.gettimeofday () in
            Incremental.sync ~paths sel.(i).inc;
            Metrics.observe m_part_sync (Unix.gettimeofday () -. t0));
        Array.iter
          (fun p ->
            if paths then begin
              scatter_paths t p;
              p.bwd_deferred <- false
            end
            else if p.fwd_dirty then p.bwd_deferred <- true;
            p.fwd_dirty <- false)
          sel;
        (* the yield is a function of the stitched delay alone *)
        if any_fwd then stitch t
      end)

let rebuild t =
  (match t.cp with
  | Some _ -> invalid_arg "Hier.rebuild: a checkpoint is active"
  | None -> ());
  Trace.span "hier.rebuild" (fun () ->
      let d = t.design in
      Array.iter
        (fun p ->
          Array.iteri
            (fun l gid ->
              p.sub.Design.vth_idx.(l) <- d.Design.vth_idx.(gid);
              p.sub.Design.size_idx.(l) <- d.Design.size_idx.(gid);
              p.sub.Design.extra_load.(l) <- d.Design.extra_load.(gid))
            p.ids)
        t.parts;
      let np = Array.length t.parts in
      Parallel.for_ ~jobs:(Stdlib.min t.jobs np) ~tasks:np (fun i ->
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
      sv_cd = circuit_delay t;
      sv_yield = t.yield_;
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
     re-mirror every gate touched under the checkpoint before the part
     engines restore their timing views *)
  List.iter
    (fun gid ->
      let p = t.parts.(t.part_of.(gid)) in
      let l = t.local_of.(gid) in
      p.sub.Design.vth_idx.(l) <- t.design.Design.vth_idx.(gid);
      p.sub.Design.size_idx.(l) <- t.design.Design.size_idx.(gid);
      p.sub.Design.extra_load.(l) <- t.design.Design.extra_load.(gid))
    cp.touched;
  Array.iteri
    (fun i p ->
      Incremental.rollback p.inc cp.cps.(i);
      p.fwd_dirty <- false;
      p.bwd_deferred <- cp.sv_bwd_deferred.(i);
      scatter_paths t p)
    t.parts;
  Arena.set t.cd 0 cp.sv_cd;
  t.yield_ <- cp.sv_yield;
  t.cp <- None

let audit t =
  Array.for_all (fun p -> Incremental.audit p.inc) t.parts
  &&
  let cd = Arena.create ~n:1 ~num_pcs:t.cd.Arena.num_pcs in
  fold_outputs t (Canonical.frame ()) cd;
  Arena.equal cd 0 t.cd 0
  && Arena.bits_equal (Canonical.cdf (Arena.get cd 0) t.tmax) t.yield_

let stats t =
  Array.fold_left
    (fun (acc : Incremental.stats) p ->
      let s = Incremental.stats p.inc in
      {
        Incremental.updates = acc.Incremental.updates + s.Incremental.updates;
        syncs = acc.Incremental.syncs + s.Incremental.syncs;
        rebuilds = acc.Incremental.rebuilds + s.Incremental.rebuilds;
        propagated = acc.Incremental.propagated + s.Incremental.propagated;
        bwd_propagated =
          acc.Incremental.bwd_propagated + s.Incremental.bwd_propagated;
        cutoffs = acc.Incremental.cutoffs + s.Incremental.cutoffs;
        max_cone = Stdlib.max acc.Incremental.max_cone s.Incremental.max_cone;
        par_levels = acc.Incremental.par_levels + s.Incremental.par_levels;
        seq_levels = acc.Incremental.seq_levels + s.Incremental.seq_levels;
        max_level_width =
          Stdlib.max acc.Incremental.max_level_width
            s.Incremental.max_level_width;
      })
    {
      Incremental.updates = 0;
      syncs = 0;
      rebuilds = 0;
      propagated = 0;
      bwd_propagated = 0;
      cutoffs = 0;
      max_cone = 0;
      par_levels = 0;
      seq_levels = 0;
      max_level_width = 0;
    }
    t.parts

(* ---------------- one-shot partitioned analysis ---------------- *)

let analyze ?memo ?(jobs = 1) (d : Design.t) model =
  if jobs < 1 then invalid_arg "Hier.analyze: jobs < 1";
  match Circuit.partition_at_registers d.Design.circuit with
  | None -> None
  | Some pt -> (
    match usable_memo memo d with
    | None -> None
    | Some memo ->
      Trace.span "hier.analyze" (fun () ->
          let n = Circuit.num_gates d.Design.circuit in
          let num_pcs = Model.num_pcs model in
          let zero = Canonical.constant ~num_pcs 0.0 in
          let gate_delay = Array.make n zero in
          let arrival = Array.make n zero in
          let nparts = Array.length pt.Circuit.parts in
          Parallel.for_ ~jobs:(Stdlib.min jobs nparts) ~tasks:nparts (fun p ->
              let ids = pt.Circuit.part_ids.(p) in
              let sub = sub_design d pt.Circuit.parts.(p) ids in
              let res =
                Ssta.analyze ~memo ~jobs:1 sub (Model.restrict model ids)
              in
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
          Some { Ssta.gate_delay; arrival; circuit_delay }))
