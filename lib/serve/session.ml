module Circuit = Sl_netlist.Circuit
module Benchmarks = Sl_netlist.Benchmarks
module Bench_format = Sl_netlist.Bench_format
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Cell_lib = Sl_tech.Cell_lib
module Liberty = Sl_tech.Liberty
module Spec = Sl_variation.Spec
module Canonical = Sl_ssta.Canonical
module Hier = Sl_ssta.Hier
module Leak_ssta = Sl_leakage.Leak_ssta
module Setup = Statleak.Setup
module Opt_core = Sl_opt.Opt_core
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt

type circuit_src = Bench of string | Text of { name : string; text : string }

type source = {
  circuit : circuit_src;
  lib_file : string option;
  sigma_scale : float;
  base_size_idx : int;
  tmax_factor : float;
}

type saved = { sv_vth : int array; sv_size : int array; sv_extra : float array }

type t = {
  name : string;
  source : source;
  setup : Setup.t;
  design : Design.t;
  engine : Hier.t;
  leak : Leak_ssta.t;
  memo : Memo.t;
  tmax : float;
  cells : int;
  gate_ids : (string, int) Hashtbl.t;
  mutable savepoints : (string * saved) list;
  mutable edits : int;
  lock : Mutex.t;
}

let resolve_circuit = function
  | Bench name -> (
    match Benchmarks.by_name name with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" name))
  | Text { name; text } -> Bench_format.parse_string ~name text

let capture design =
  {
    sv_vth = Array.copy design.Design.vth_idx;
    sv_size = Array.copy design.Design.size_idx;
    sv_extra = Array.copy design.Design.extra_load;
  }

(* [init] pre-loads an assignment (snapshot restore) before the initial
   analysis, so a restored session pays one full analysis, not two. *)
let build ?memo ~name ?init (source : source) =
  if source.sigma_scale <= 0.0 then invalid_arg "session: sigma_scale must be > 0";
  if source.tmax_factor <= 0.0 then invalid_arg "session: tmax_factor must be > 0";
  let circuit = resolve_circuit source.circuit in
  let lib =
    match source.lib_file with
    | None -> Cell_lib.default ()
    | Some path -> Liberty.parse_file path
  in
  let spec = Spec.scaled source.sigma_scale in
  let setup =
    Setup.make ~lib ~spec ~base_size_idx:source.base_size_idx
      ~name:circuit.Circuit.name circuit
  in
  let design = Setup.fresh_design setup in
  (match init with
  | None -> ()
  | Some saved ->
    Array.blit saved.sv_vth 0 design.Design.vth_idx 0 (Array.length saved.sv_vth);
    Array.blit saved.sv_size 0 design.Design.size_idx 0 (Array.length saved.sv_size);
    Array.blit saved.sv_extra 0 design.Design.extra_load 0
      (Array.length saved.sv_extra));
  (* Frozen either way, so register cones can use it as it is and a
     ranking scan may run on the pool. *)
  let memo =
    match (source.lib_file, memo) with
    | None, Some m when Memo.frozen m && Memo.covers m design -> m
    | _ ->
      let m = Memo.create lib in
      Memo.prefill m design;
      Memo.freeze m;
      m
  in
  let tmax = Setup.tmax setup ~factor:source.tmax_factor in
  let engine = Hier.create ~memo ~partition:true design setup.Setup.model ~tmax in
  let leak = Leak_ssta.create design setup.Setup.model in
  (* net names are unique: a circuit with a repeated net is rejected *)
  let gate_ids = Hashtbl.create (Circuit.num_gates circuit) in
  Array.iter
    (fun (g : Circuit.gate) -> Hashtbl.add gate_ids g.Circuit.name g.Circuit.id)
    circuit.Circuit.gates;
  {
    name;
    source;
    setup;
    design;
    engine;
    leak;
    memo;
    tmax;
    cells = Circuit.num_cells circuit;
    gate_ids;
    savepoints = [];
    edits = 0;
    lock = Mutex.create ();
  }

let create ?memo ~name source = build ?memo ~name source

type edit =
  | Resize of string * int
  | Reassign_vth of string * int
  | Set_load of string * float

let gate_id t gate_name =
  match Hashtbl.find_opt t.gate_ids gate_name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "no gate named %S" gate_name)

(* Every gate is resolved before any is touched, and the values are
   checked by the design's own setters: on the first bad one, every gate
   gets its old assignment back before the engine or the edit count sees
   any of them. *)
let apply_edits t edits =
  let d = t.design in
  let ops =
    List.map
      (fun e ->
        let g = match e with Resize (g, _) | Reassign_vth (g, _) | Set_load (g, _) -> g in
        let id = gate_id t g in
        (id, e, (d.Design.vth_idx.(id), d.Design.size_idx.(id), d.Design.extra_load.(id))))
      edits
  in
  (try
     List.iter
       (fun (id, e, _) ->
         match e with
         | Resize (_, v) -> Design.set_size d id v
         | Reassign_vth (_, v) -> Design.set_vth d id v
         | Set_load (_, v) -> Design.set_extra_load d id v)
       ops
   with exn ->
     List.iter
       (fun (id, _, (v, s, x)) ->
         d.Design.vth_idx.(id) <- v;
         d.Design.size_idx.(id) <- s;
         d.Design.extra_load.(id) <- x)
       ops;
     raise exn);
  List.iter (fun (id, _, _) -> Hier.update_gate t.engine id) ops;
  t.edits <- t.edits + List.length ops

type analysis = {
  yield : float;
  delay_mean : float;
  delay_sigma : float;
  leak_mean : float;
  leak_std : float;
  leak_nominal : float;
  leak_p99 : float;
  high_vth : int;
  total_width : float;
}

(* No reply reads the worst-path arrays, so the backward/path repair is
   left to the optimizer's full sync.  The timing engine is bit-identical
   to from-scratch by construction; the leakage moments are made so by
   [Leak_ssta.refresh], which re-derives the edited gates' terms and
   re-folds every sum.  [Leak_ssta.update_gate]'s drift updates are not
   exactly reversible, so they would break rollback/restore bit-identity. *)
let analyze t =
  Hier.sync ~paths:false t.engine;
  Leak_ssta.refresh t.leak;
  let cd = Hier.circuit_delay t.engine in
  {
    yield = Hier.yield t.engine;
    delay_mean = cd.Canonical.mean;
    delay_sigma = Canonical.sigma cd;
    leak_mean = Leak_ssta.mean t.leak;
    leak_std = Leak_ssta.std t.leak;
    leak_nominal = Leak_ssta.nominal t.leak;
    leak_p99 = Leak_ssta.quantile t.leak 0.99;
    high_vth = Design.count_high_vth t.design;
    total_width = Design.total_width t.design;
  }

let save t name =
  t.savepoints <- (name, capture t.design) :: List.remove_assoc name t.savepoints

let rollback t name =
  let saved =
    match List.assoc_opt name t.savepoints with
    | Some s -> s
    | None -> raise Not_found
  in
  let d = t.design in
  let changed = ref 0 in
  Array.iteri
    (fun id _ ->
      if
        d.Design.vth_idx.(id) <> saved.sv_vth.(id)
        || d.Design.size_idx.(id) <> saved.sv_size.(id)
        || d.Design.extra_load.(id) <> saved.sv_extra.(id)
      then begin
        d.Design.vth_idx.(id) <- saved.sv_vth.(id);
        d.Design.size_idx.(id) <- saved.sv_size.(id);
        d.Design.extra_load.(id) <- saved.sv_extra.(id);
        Hier.update_gate t.engine id;
        incr changed
      end)
    d.Design.vth_idx;
  !changed

let savepoint_names t = List.map fst t.savepoints

let optimize ?progress ?(jobs = 1) t ~mode ~eta =
  let engine = { Opt_core.timing = t.engine; leak = t.leak; memo = t.memo } in
  let optimize = match mode with `Stat -> Stat_opt.optimize | `Batch -> Batch_opt.optimize in
  optimize ?progress ~engine
    { (Opt_core.default_config ~tmax:t.tmax ~eta) with jobs }
    t.design t.setup.Setup.model

(* Eviction snapshots: everything needed to rebuild deterministically.
   A version tag guards against unmarshalling a stale on-disk format. *)
type snapshot_rec = {
  snap_version : int;
  snap_source : source;
  snap_assign : saved;
  snap_saves : (string * saved) list;
  snap_edits : int;
}

let snapshot_version = 1

let snapshot t =
  Marshal.to_string
    {
      snap_version = snapshot_version;
      snap_source = t.source;
      snap_assign = capture t.design;
      snap_saves = t.savepoints;
      snap_edits = t.edits;
    }
    []

let restore ?memo ~name blob =
  let r : snapshot_rec =
    try Marshal.from_string blob 0
    with _ -> failwith "session restore: corrupt snapshot"
  in
  if r.snap_version <> snapshot_version then
    failwith "session restore: snapshot version mismatch";
  let t = build ?memo ~name ~init:r.snap_assign r.snap_source in
  t.savepoints <- r.snap_saves;
  t.edits <- r.snap_edits;
  t
