(* Timing, counting and trace roll-up shared by the three workloads.

   Every call into a library layer goes through [timed]: a monotonic
   clock around the call, the calling domain's allocation deltas, and a
   benchmark-side span named "bench.<layer>.<what>" so a traced run can
   attribute time to layers without any tracing inside the library.
   With the trace sink Disabled (untraced iterations) the span costs one
   atomic load. *)

module Json = Sl_util.Json
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The benchmark fixes its own parallelism so figures do not depend on
   the host's core count: MC dies, hierarchical cones, the partition
   optimizer and the serve daemon's pool all run on this many domains. *)
let jobs = 2

(* ---------- per-call samples ---------- *)

(* Phase of the measurement loop a sample was taken in: setup repetition
   k is [-(k+1)], flow iteration i is [i]. *)
let phase = ref 0

type sample = { phase : int; dt : float; minor : float; major : float }

let samples : (string, sample list) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

(* [timed "ssta.analyze" f]: the span's layer is the name's first
   component ("util" is the serve layer's wire code).  The allocation
   deltas are the calling domain's. *)
let timed name f =
  let minor0, _, major0 = Gc.counters () in
  let t0 = now () in
  let r = Trace.span ("bench." ^ name) f in
  let dt = now () -. t0 in
  let minor1, _, major1 = Gc.counters () in
  let s = { phase = !phase; dt; minor = minor1 -. minor0; major = major1 -. major0 } in
  locked (fun () ->
      Hashtbl.replace samples name
        (s :: Option.value ~default:[] (Hashtbl.find_opt samples name)));
  r

let samples_of name = locked (fun () -> Option.value ~default:[] (Hashtbl.find_opt samples name))

(* Every single call's seconds over the given phases. *)
let call_seconds name phases =
  List.filter_map (fun s -> if List.mem s.phase phases then Some s.dt else None) (samples_of name)

(* Per-phase totals of a call: one value per phase, in phase order. *)
let phase_sums name phases =
  let ss = samples_of name in
  List.map
    (fun p -> List.fold_left (fun acc s -> if s.phase = p then acc +. s.dt else acc) 0.0 ss)
    phases

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* One operation checked.  A failed check counts against the run and is
   reported on stderr; the run carries on so every failure shows. *)
let check what ok =
  locked (fun () ->
      incr attempted;
      if not ok then incr failed);
  if not ok then Printf.eprintf "check failed: %s\n%!" what

let bits = Int64.bits_of_float

(* FNV-1a over IEEE-754 bit patterns: equal digests mean bit-identical
   values, stronger than (=) on floats (which calls 0. and -0. equal). *)
let fnv h f = Int64.mul (Int64.logxor h (bits f)) 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L
let digest_floats fs = List.fold_left fnv fnv_basis fs

let canon_digest (cs : Sl_ssta.Canonical.t array) =
  Array.fold_left
    (fun h (c : Sl_ssta.Canonical.t) ->
      Array.fold_left fnv (fnv (fnv h c.Sl_ssta.Canonical.mean) c.Sl_ssta.Canonical.rnd)
        c.Sl_ssta.Canonical.coeffs)
    fnv_basis cs

(* Determinism check: the [key]ed value must equal the one its first
   phase recorded. *)
let firsts : (string, string) Hashtbl.t = Hashtbl.create 16

let check_repeat key value =
  let first =
    locked (fun () ->
        match Hashtbl.find_opt firsts key with
        | Some v -> v
        | None ->
          Hashtbl.replace firsts key value;
          value)
  in
  check (key ^ " repeats bit-for-bit") (String.equal first value)

(* ---------- registry counters ---------- *)

(* Counter families read both from the in-process registry and from the
   daemon's [metrics] scrape.  The library publishes them itself; the
   benchmark only takes per-iteration deltas. *)
let count_families =
  [
    ("ssta.full_analyses", "statleak_ssta_analyses_total");
    ("ssta.backwards", "statleak_ssta_backwards_total");
    ("ssta.syncs", "statleak_incr_syncs_total");
    ("ssta.propagated", "statleak_incr_propagated_total");
    ("ssta.bwd_propagated", "statleak_incr_bwd_propagated_total");
    ("ssta.cutoffs", "statleak_incr_cutoffs_total");
    ("ssta.rebuilds", "statleak_incr_rebuilds_total");
    ("ssta.dirty_partitions", "statleak_hier_dirty_partitions_total");
    ("opt.trials", "statleak_opt_trials_total");
    ("opt.refreshes", "statleak_opt_refreshes_total");
    ("opt.rollbacks", "statleak_opt_rollbacks_total");
    ("opt.vth_moves", "statleak_opt_vth_moves_total");
    ("opt.size_moves", "statleak_opt_size_moves_total");
    ("opt.bands_tried", "statleak_batch_bands_tried_total");
    ("opt.bands_committed", "statleak_batch_bands_committed_total");
    ("mc.dies", "statleak_mc_dies_total");
  ]

(* Per-family sums (over every label set) from one in-process registry
   snapshot. *)
let registry_counts () =
  let snap = timed "obs.snapshot" Metrics.snapshot in
  List.map
    (fun (k, family) ->
      ( k,
        List.fold_left
          (fun acc (s : Metrics.sample) ->
            if s.Metrics.name = family then acc +. s.Metrics.value else acc)
          0.0 snap ))
    count_families

(* The same from Prometheus exposition text (the daemon's [metrics]
   scrape): "family{labels} value" or "family value" lines. *)
let exposition_total text name =
  List.fold_left
    (fun acc line ->
      match String.rindex_opt line ' ' with
      | Some sp when String.length line > 0 && line.[0] <> '#' ->
        let key = String.sub line 0 sp in
        let family =
          match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key
        in
        if family <> name then acc
        else
          Option.fold ~none:acc ~some:(( +. ) acc)
            (float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)))
      | _ -> acc)
    0.0 (String.split_on_char '\n' text)

let counts_of read = List.map (fun (k, family) -> (k, read family)) count_families

let counts_delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* ---------- trace roll-up ---------- *)

let layers =
  [ "netlist"; "variation"; "tech"; "sta"; "ssta"; "leakage"; "opt"; "mc"; "yield";
    "serve"; "obs" ]

(* Layer of a span: benchmark spans name it ("bench.<layer>.<what>",
   "util" folded into serve); the library's own spans are grouped by
   prefix.  Anything else — the benchmark's root spans and its own
   bookkeeping between calls — is unaccounted. *)
let layer_of_span name =
  match String.split_on_char '.' name with
  | "bench" :: "util" :: _ -> "serve"
  | "bench" :: l :: _ :: _ when List.mem l layers -> l
  | ("ssta" | "hier") :: _ -> "ssta"
  | "opt" :: _ -> "opt"
  | "mc" :: _ -> "mc"
  | _ -> "unaccounted"

type rollup = {
  by_layer : (string, float) Hashtbl.t;  (* layer -> self seconds *)
  by_span : (string, float) Hashtbl.t;   (* span name -> self seconds *)
  mutable root_s : float;                (* wall time of the root spans *)
}

let empty_rollup () = { by_layer = Hashtbl.create 16; by_span = Hashtbl.create 32; root_s = 0.0 }

type open_span = { span : string; stop : float; dur : float; mutable children : float }

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Adds to [r] the self time of every span recorded on a thread that ran
   a [root] span: its duration minus the part its child spans cover.
   Nesting is rebuilt per thread; spans of other threads (the library's
   worker domains) overlap their caller in wall time and are left out,
   so the self times partition the root spans' wall time exactly. *)
let rollup_into r ~root (trace : Json.t) =
  let events =
    Option.value ~default:[] (Json.list "traceEvents" trace)
    |> List.filter_map (fun ev ->
           match
             (Json.str "ph" ev, Json.str "name" ev, Json.num "ts" ev, Json.num "dur" ev,
              Json.num "tid" ev)
           with
           | Some "X", Some name, Some ts, Some dur, Some tid -> Some (tid, ts, dur, name)
           | _ -> None)
  in
  let tids = List.filter_map (fun (tid, _, _, n) -> if n = root then Some tid else None) events in
  let events =
    List.filter (fun (tid, _, _, _) -> List.mem tid tids) events
    |> List.sort (fun (t1, ts1, d1, _) (t2, ts2, d2, _) ->
           compare (t1, ts1, -.d1) (t2, ts2, -.d2))
  in
  let stack = ref [] in
  let close o =
    let self = Float.max 0.0 ((o.dur -. o.children) *. 1e-6) in
    add r.by_span o.span self;
    add r.by_layer (layer_of_span o.span) self;
    if o.span = root then r.root_s <- r.root_s +. (o.dur *. 1e-6)
  in
  let cur_tid = ref Float.nan in
  List.iter
    (fun (tid, ts, dur, span) ->
      if tid <> !cur_tid then begin
        List.iter close !stack;
        stack := [];
        cur_tid := tid
      end;
      let rec pop () =
        match !stack with
        | top :: rest when top.stop <= ts ->
          close top;
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with parent :: _ -> parent.children <- parent.children +. dur | [] -> ());
      stack := { span; stop = ts +. dur; dur; children = 0.0 } :: !stack)
    events;
  List.iter close !stack

let self_of r k = Option.value ~default:0.0 (Hashtbl.find_opt r.by_span k)
let layer_self r k = Option.value ~default:0.0 (Hashtbl.find_opt r.by_layer k)

(* ---------- set-up ---------- *)

(* Setup.make's three steps (lib/core/setup.ml), each timed as a call
   into its own layer so the variation-model build and the D0 timing run
   show apart in the set-up breakdown. *)
let make_setup circuit =
  let lib = Sl_tech.Cell_lib.default () in
  let spec = Sl_variation.Spec.default in
  let model = timed "variation.model_build" (fun () -> Sl_variation.Model.build spec circuit) in
  let base_size_idx = 2 in
  let d0 =
    timed "sta.d0" (fun () ->
        Sl_sta.Sta.dmax (Sl_tech.Design.create ~size_idx:base_size_idx lib circuit))
  in
  { Statleak.Setup.name = circuit.Sl_netlist.Circuit.name; circuit; lib; spec; model;
    base_size_idx; d0 }

(* ---------- the measurement loop ---------- *)

type iteration = {
  index : int;
  traced : bool;
  flow_s : float;
  minor_mwords : float;  (* allocated on the benchmark's main domain *)
  major_mwords : float;
  counts : (string * float) list;
}

type run = {
  setup_s : float list;
  setup_rollup : rollup;
  iterations : iteration list;
  flow_rollup : rollup;
}

(* Where the last traced iteration's spans are written (Chrome trace
   JSON, loadable in Perfetto); set by main. *)
let trace_path = ref None

let with_tracing ~on f =
  if not on then f ()
  else begin
    Trace.clear ();
    Trace.set_sink Trace.Memory;
    Fun.protect ~finally:(fun () -> Trace.set_sink Trace.Disabled) f
  end

(* [measure]: flow iterations until [seconds] have passed since the
   start — at least one, two in a traced run, which alternates untraced
   and traced iterations so the trace overhead is measured in one
   process.  Before every iteration the set-up runs [setup_reps] times,
   each timed; the iteration runs on the last one's state.  Spreading the
   set-ups over the whole window exposes them to the same host load as
   the iterations, where a burst of set-ups at the start would see only
   the first seconds.  (A first iteration runs no slower than later ones
   on any workload, so none is discarded.)
   [teardown] releases a discarded set-up's resources, untimed.
   [flow] returns the iteration's machine-independent counts.  [root] is
   the span the flow's layer spans nest under ("bench.flow", or the
   per-client root for the serve workload). *)
let measure ~trace ~seconds ~setup_reps ~setup ?(teardown = ignore) ~flow
    ?(root = "bench.flow") () =
  let setup_rollup = empty_rollup () in
  let flow_rollup = empty_rollup () in
  let state = ref None in
  let setup_s = ref [] in
  let set_up () =
    for _ = 1 to setup_reps do
      phase := -(List.length !setup_s + 1);
      Option.iter teardown !state;
      state := None;
      Gc.full_major ();
      with_tracing ~on:trace (fun () ->
          let t0 = now () in
          let st = Trace.span "bench.setup" setup in
          setup_s := (now () -. t0) :: !setup_s;
          state := Some st;
          if trace then rollup_into setup_rollup ~root:"bench.setup" (Trace.export ()))
    done;
    Option.get !state
  in
  let t_start = now () in
  let rec loop i acc =
    let min_iters = if trace then 2 else 1 in
    if i >= min_iters && now () -. t_start >= seconds then List.rev acc
    else begin
      let st = set_up () in
      phase := i;
      Gc.full_major ();
      let traced = trace && i mod 2 = 1 in
      let it =
        with_tracing ~on:traced (fun () ->
            let minor0, _, major0 = Gc.counters () in
            let t0 = now () in
            let counts = Trace.span "bench.flow" (fun () -> flow st i) in
            let dt = now () -. t0 in
            let minor1, _, major1 = Gc.counters () in
            if traced then begin
              rollup_into flow_rollup ~root (Trace.export ());
              Option.iter (fun p -> ignore (Trace.write p)) !trace_path
            end;
            {
              index = i;
              traced;
              flow_s = dt;
              minor_mwords = (minor1 -. minor0) /. 1e6;
              major_mwords = (major1 -. major0) /. 1e6;
              counts;
            })
      in
      loop (i + 1) (it :: acc)
    end
  in
  let iterations = loop 0 [] in
  (* counts are machine-independent: every iteration must repeat them *)
  List.iter
    (fun it ->
      check_repeat "iteration counts"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) it.counts)))
    iterations;
  { setup_s = List.rev !setup_s; setup_rollup; iterations; flow_rollup }

let untraced r = List.filter (fun it -> not it.traced) r.iterations
let traced_iters r = List.filter (fun it -> it.traced) r.iterations
let phases its = List.map (fun it -> it.index) its
let setup_phases r = List.init (List.length r.setup_s) (fun k -> -(k + 1))

(* Median over untraced iterations of a call's per-iteration total. *)
let per_iter r name = median (phase_sums name (phases (untraced r)))

(* ---------- reporting ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let count r k =
  match r.iterations with
  | it :: _ -> Option.value ~default:0.0 (List.assoc_opt k it.counts)
  | [] -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Largest major heap of this process so far. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The per-layer metrics, identical names for every workload (a layer a
   workload never enters reads 0).  Times appear as shares of the
   untraced-equivalent wall time they were measured in, so a layer's
   share bounds what speeding it up can save on that workload; absolute
   seconds per call are in the run's detail file. *)
let per_layer_metrics r ~extra =
  let fr = r.flow_rollup and sr = r.setup_rollup in
  let flow_pct k = pct k fr.root_s in
  let setup_pct k = pct k sr.root_s in
  let spans names = sum (List.map (self_of fr) names) in
  let flow_untraced = median (List.map (fun it -> it.flow_s) (untraced r)) in
  let flow_traced = median (List.map (fun it -> it.flow_s) (traced_iters r)) in
  let first f = match untraced r with it :: _ -> f it | [] -> 0.0 in
  let c = count r in
  let moves = c "opt.vth_moves" +. c "opt.size_moves" in
  List.map (fun l -> metric (l ^ ".self_pct") "%" (flow_pct (layer_self fr l))) layers
  @ [ metric "unaccounted.self_pct" "%" (flow_pct (layer_self fr "unaccounted")) ]
  @ List.map
      (fun l -> metric ("setup." ^ l ^ "_pct") "%" (setup_pct (layer_self sr l)))
      [ "netlist"; "variation"; "sta"; "tech"; "serve" ]
  @ [
      metric "ssta.forward_pct" "%" (flow_pct (spans [ "ssta.forward" ]));
      metric "ssta.backward_pct" "%" (flow_pct (spans [ "ssta.backward" ]));
      metric "ssta.sync_pct" "%" (flow_pct (spans [ "ssta.sync" ]));
      metric "ssta.hier_pct" "%"
        (flow_pct (spans [ "hier.create"; "hier.sync"; "hier.rebuild"; "hier.analyze" ]));
      metric "leakage.create_pct" "%" (flow_pct (spans [ "bench.leakage.create" ]));
      metric "opt.rank_pct" "%" (flow_pct (spans [ "opt.rank" ]));
      metric "opt.pass_pct" "%" (flow_pct (spans [ "opt.pass" ]));
      metric "opt.band_pct" "%" (flow_pct (spans [ "opt.band" ]));
      metric "opt.fix_yield_pct" "%" (flow_pct (spans [ "opt.fix_yield" ]));
      metric "opt.det_pct" "%" (flow_pct (spans [ "bench.opt.det_optimize" ]));
      metric "mc.run_pct" "%" (flow_pct (spans [ "mc.run"; "mc.run_dies" ]));
      metric "serve.edit_analyze_pct" "%"
        (flow_pct (spans [ "bench.serve.edit"; "bench.serve.analyze" ]));
      metric "serve.yield_pct" "%" (flow_pct (spans [ "bench.serve.yield" ]));
      metric "serve.optimize_pct" "%" (flow_pct (spans [ "bench.serve.optimize" ]));
      metric "serve.json_pct" "%"
        (flow_pct (spans [ "bench.util.json_encode"; "bench.util.json_decode" ]));
      metric "obs.trace_overhead_pct" "%" (pct (flow_traced -. flow_untraced) flow_untraced);
    ]
  @ List.map (fun (k, _) -> metric k "count" (c k)) count_families
  @ [
      metric "opt.band_commit_ratio" "ratio" (ratio (c "opt.bands_committed") (c "opt.bands_tried"));
      metric "opt.move_keep_ratio" "ratio" (ratio moves (moves +. c "opt.rollbacks"));
      metric "gc.minor_mwords" "Mwords" (first (fun it -> it.minor_mwords));
      metric "gc.major_mwords" "Mwords" (first (fun it -> it.major_mwords));
      metric "gc.peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  @ extra

(* Human-readable lines first; the JSON result must be the last stdout line. *)
let print_table title (ms : metric list) =
  Printf.printf "== %s\n" title;
  List.iter (fun m -> Printf.printf "  %-32s %18.6f %s\n" m.name m.value m.unit_) ms

let result_json ~correct (ms : metric list) =
  Json.obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int !attempted));
      ("failed", Json.Num (float_of_int !failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             ms) );
    ]

(* Every timed call: count, median and total seconds, allocation. *)
let calls_json () =
  let rows =
    locked (fun () -> Hashtbl.fold (fun name ss acc -> (name, ss) :: acc) samples [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    (List.map
       (fun (name, ss) ->
         let dts = List.map (fun s -> s.dt) ss in
         ( name,
           Json.obj
             [
               ("count", Json.Num (float_of_int (List.length ss)));
               ("median_s", Json.Num (median dts));
               ("min_s", Json.Num (List.fold_left Float.min infinity dts));
               ("total_s", Json.Num (sum dts));
               ("minor_mwords", Json.Num (sum (List.map (fun s -> s.minor) ss) /. 1e6));
               ("major_mwords", Json.Num (sum (List.map (fun s -> s.major) ss) /. 1e6));
             ] ))
       rows)
