(* statleak command-line interface.

   Subcommands mirror the library layers: info/sta/ssta/leakage/mc operate
   on one circuit; optimize runs either optimizer and reports
   before/after metrics; experiments regenerates the paper tables. *)

module Circuit = Sl_netlist.Circuit
module Benchmarks = Sl_netlist.Benchmarks
module Bench_format = Sl_netlist.Bench_format
module Design = Sl_tech.Design
module Liberty = Sl_tech.Liberty
module Spec = Sl_variation.Spec
module Sta = Sl_sta.Sta
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Leak_ssta = Sl_leakage.Leak_ssta
module Mc = Sl_mc.Mc
module Yield_seq = Sl_yield.Seq
module Yield_est = Sl_yield.Estimate
module Setup = Statleak.Setup
module Evaluate = Statleak.Evaluate
module Experiments = Statleak.Experiments
module Json = Sl_util.Json
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics
module Obs_log = Sl_obs.Log
module Opt_core = Sl_opt.Opt_core

open Cmdliner

(* ---------- shared arguments ---------- *)

let circuit_arg =
  let doc =
    "Benchmark name (see $(b,bench-list)) or a path to an ISCAS '.bench' file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let lib_arg =
  let doc = "Cell library file (statleak Liberty-like format); default built-in 100nm." in
  Arg.(value & opt (some string) None & info [ "lib" ] ~docv:"FILE" ~doc)

let sigma_scale_arg =
  let doc = "Scale factor on both variation sigmas." in
  Arg.(value & opt float 1.0 & info [ "sigma-scale" ] ~docv:"K" ~doc)

let size_idx_arg =
  let doc = "Initial size index for all gates (0 = unit drive)." in
  Arg.(value & opt int 2 & info [ "size-idx" ] ~docv:"I" ~doc)

let factor_arg =
  let doc = "Delay constraint as a multiple of the initial nominal delay D0." in
  Arg.(value & opt float 1.25 & info [ "tmax-factor" ] ~docv:"X" ~doc)

let eta_arg =
  let doc = "Timing-yield target for the statistical optimizer, in (0, 1)." in
  Arg.(value & opt float 0.95 & info [ "eta" ] ~docv:"P" ~doc)

let seed_arg =
  let doc = "Random seed for Monte-Carlo runs." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let samples_arg =
  let doc = "Monte-Carlo sample count." in
  Arg.(value & opt int 2000 & info [ "samples" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains: Monte-Carlo evaluation parallelizes across dies \
     (default: all cores), SSTA and the statistical optimizers across the \
     gates of each topological level (default: 1); at most 64, and at most \
     one domain per core takes part.  Results are bit-identical for every \
     value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* SSTA/optimizer propagation: [None] means 1 domain (never silently hand
   work to other domains for a caller who didn't ask), unlike Monte-Carlo's
   all-cores default — both are safe, bit-identity holds either way. *)
let ssta_jobs = function Some j -> j | None -> 1

(* Flag values are checked before any work: a bad one is a usage error
   (one line, exit 2), never a library exception. *)
let bad_flag fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)
    fmt

let check_jobs = function
  | Some j when j < 1 || j > Sl_util.Parallel.max_jobs ->
    bad_flag "--jobs must lie in [1, %d] (got %d)" Sl_util.Parallel.max_jobs j
  | _ -> ()

let check_eta eta =
  if not (eta > 0.0 && eta < 1.0) then bad_flag "--eta must lie in (0, 1) (got %g)" eta

let check_factor factor =
  if not (factor > 0.0 && Float.is_finite factor) then
    bad_flag "--tmax-factor must be a finite number > 0 (got %g)" factor

let partition_arg =
  let doc =
    "Partition the design at register boundaries and time each \
     combinational cone separately, cones scheduled on the $(b,--jobs) \
     domains (see DESIGN.md §15).  Needs a sequential netlist (registers \
     cut at parse time); otherwise the design is timed whole, as one cone \
     ($(b,ssta) prints a notice).  Results are bit-identical either way."
  in
  Arg.(value & flag & info [ "partition" ] ~doc)

let trace_arg =
  let doc =
    "Record the run's internal spans (SSTA forward/backward passes, \
     optimizer passes and bands, Monte-Carlo sweeps) and write them as \
     Chrome trace-event JSON to $(docv), loadable in chrome://tracing or \
     Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Trace.set_sink Trace.Memory;
    Fun.protect
      ~finally:(fun () ->
        let n = Trace.write path in
        Printf.printf "trace: %d events written to %s\n" n path)
      f

let load_circuit spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then begin
    try Bench_format.parse_file spec with
    | Bench_format.Parse_error (line, msg) ->
      Printf.eprintf "error: %s:%d: %s\n" spec line msg;
      exit 2
    | Failure msg ->
      Printf.eprintf "error: %s: invalid netlist: %s\n" spec msg;
      exit 2
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  end
  else
    match Benchmarks.by_name spec with
    | Some c -> c
    | None ->
      Printf.eprintf
        "error: %S is neither a file nor a benchmark (try 'statleak bench-list')\n" spec;
      exit 2

let load_lib = function
  | None -> Sl_tech.Cell_lib.default ()
  | Some path -> (
    try Liberty.parse_file path with
    | Liberty.Parse_error (line, msg) ->
      Printf.eprintf "error: %s:%d: %s\n" path line msg;
      exit 2
    | Failure msg ->
      Printf.eprintf "error: %s: invalid library: %s\n" path msg;
      exit 2
    | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)

let make_setup circuit_spec lib_file sigma_scale size_idx =
  if not (sigma_scale >= 0.0 && Float.is_finite sigma_scale) then
    bad_flag "--sigma-scale must be a finite number >= 0 (got %g)" sigma_scale;
  let circuit = load_circuit circuit_spec in
  let lib = load_lib lib_file in
  let sizes = Sl_tech.Cell_lib.num_sizes lib in
  if size_idx < 0 || size_idx >= sizes then
    bad_flag "--size-idx must lie in [0, %d] for this library (got %d)" (sizes - 1) size_idx;
  let spec = Spec.scaled sigma_scale in
  Setup.make ~lib ~spec ~base_size_idx:size_idx ~name:circuit.Circuit.name circuit

(* ---------- subcommands ---------- *)

let bench_list () =
  List.iter
    (fun name ->
      match Benchmarks.by_name name with
      | Some c -> Printf.printf "%-10s %s\n" name (Circuit.stats c)
      | None -> ())
    Benchmarks.names

let circuit_info circuit_spec =
  let c = load_circuit circuit_spec in
  print_endline (Circuit.stats c);
  let levels = Circuit.levels c in
  Printf.printf "levels: %d (widest has %d gates)\n" (Array.length levels)
    (Array.fold_left (fun acc l -> Stdlib.max acc (Array.length l)) 0 levels)

let sta circuit_spec lib_file size_idx =
  let s = make_setup circuit_spec lib_file 1.0 size_idx in
  let d = Setup.fresh_design s in
  let res = Sta.analyze d in
  Printf.printf "nominal delay: %.1f ps\n" res.Sta.dmax;
  let path = Sta.critical_path s.Setup.circuit res in
  Printf.printf "critical path (%d stages):\n" (Array.length path);
  Array.iter
    (fun id ->
      let g = Circuit.gate s.Setup.circuit id in
      Printf.printf "  %-12s %-5s arrival %8.1f ps\n" g.Circuit.name
        (Sl_netlist.Cell_kind.to_string g.Circuit.kind)
        res.Sta.arrival.(id))
    path

let ssta circuit_spec lib_file sigma_scale size_idx factor critical partition jobs trace =
  check_jobs jobs;
  check_factor factor;
  with_trace trace @@ fun () ->
  let s = make_setup circuit_spec lib_file sigma_scale size_idx in
  let d = Setup.fresh_design s in
  let jobs = ssta_jobs jobs in
  let res =
    if partition then
      match Sl_ssta.Hier.analyze ~jobs d s.Setup.model with
      | Some r ->
        (match Circuit.partition_at_registers s.Setup.circuit with
        | Some p ->
          Printf.printf "partitions: %d register-boundary cones (jobs=%d)\n"
            (Array.length p.Circuit.parts) jobs
        | None -> ());
        r
      | None ->
        Printf.printf
          "partition: netlist does not decompose at register boundaries; \
           using the flat engine\n";
        Ssta.analyze ~jobs d s.Setup.model
    else Ssta.analyze ~jobs d s.Setup.model
  in
  let cd = res.Ssta.circuit_delay in
  let tmax = Setup.tmax s ~factor in
  Printf.printf "circuit delay: mean %.1f ps, sigma %.1f ps (%.1f%%)\n"
    cd.Canonical.mean (Canonical.sigma cd)
    (100.0 *. Canonical.sigma cd /. cd.Canonical.mean);
  Printf.printf "nominal D0:   %.1f ps\n" s.Setup.d0;
  Printf.printf "P(delay <= %.1f ps) = %.4f   (Tmax = %.2f * D0)\n" tmax
    (Ssta.timing_yield res ~tmax) factor;
  List.iter
    (fun p ->
      Printf.printf "  %2.0f%% quantile: %.1f ps\n" (100.0 *. p)
        (Ssta.tmax_for_yield res ~p))
    [ 0.5; 0.9; 0.95; 0.99 ];
  if critical > 0 then begin
    let bwd = Ssta.backward ~jobs s.Setup.circuit res in
    let cells =
      Array.to_list s.Setup.circuit.Circuit.gates
      |> List.filter_map (fun (g : Circuit.gate) ->
             if g.Circuit.kind = Sl_netlist.Cell_kind.Pi then None
             else
               Some
                 (Ssta.node_criticality res ~backward:bwd ~tmax g.Circuit.id, g.Circuit.id))
      |> List.sort (fun (a, ia) (b, ib) ->
             let c = Float.compare b a in
             if c <> 0 then c else Int.compare ib ia)
    in
    Printf.printf "most statistically critical gates (P(path through gate > Tmax)):\n";
    List.iteri
      (fun i (cr, id) ->
        if i < critical then
          Printf.printf "  %-14s %.4f\n" (Circuit.gate s.Setup.circuit id).Circuit.name cr)
      cells
  end

let leakage circuit_spec lib_file sigma_scale size_idx =
  let s = make_setup circuit_spec lib_file sigma_scale size_idx in
  let d = Setup.fresh_design s in
  let l = Leak_ssta.create d s.Setup.model in
  Printf.printf "nominal leakage: %8.2f uA\n" (Leak_ssta.nominal l /. 1000.0);
  Printf.printf "mean leakage:    %8.2f uA  (%.2fx nominal)\n"
    (Leak_ssta.mean l /. 1000.0)
    (Leak_ssta.mean l /. Leak_ssta.nominal l);
  Printf.printf "std:             %8.2f uA\n" (Leak_ssta.std l /. 1000.0);
  List.iter
    (fun p ->
      Printf.printf "  %2.0f%% quantile: %8.2f uA\n" (100.0 *. p)
        (Leak_ssta.quantile l p /. 1000.0))
    [ 0.5; 0.95; 0.99 ]

let mc circuit_spec lib_file sigma_scale size_idx factor seed samples jobs =
  check_jobs jobs;
  check_factor factor;
  if samples < 1 then bad_flag "--samples must be >= 1 (got %d)" samples;
  let s = make_setup circuit_spec lib_file sigma_scale size_idx in
  let d = Setup.fresh_design s in
  let tmax = Setup.tmax s ~factor in
  let r = Mc.run ?jobs ~seed ~samples d s.Setup.model in
  Printf.printf "%d dies, Tmax = %.1f ps (%.2f * D0)\n" samples tmax factor;
  Printf.printf "delay:  mean %.1f ps, std %.1f ps, yield %.4f\n" (Mc.delay_mean r)
    (Mc.delay_std r)
    (Mc.timing_yield r ~tmax);
  Printf.printf "leak:   mean %.2f uA, std %.2f uA, p99 %.2f uA\n"
    (Mc.leak_mean r /. 1000.0) (Mc.leak_std r /. 1000.0)
    (Mc.leak_quantile r 0.99 /. 1000.0)

let yield circuit_spec lib_file sigma_scale size_idx factor method_s ci halfwidth
    max_samples seed jobs trace =
  check_jobs jobs;
  check_factor factor;
  if not (ci > 0.0 && ci < 1.0) then bad_flag "--ci must lie in (0, 1) (got %g)" ci;
  if not (halfwidth >= 0.0 && Float.is_finite halfwidth) then
    bad_flag "--halfwidth must be a finite number >= 0 (got %g)" halfwidth;
  let method_ =
    match Yield_seq.method_of_string method_s with
    | Some m -> m
    | None -> bad_flag "unknown method %S (use naive, lhs, is, cv or is+cv)" method_s
  in
  let least = Yield_seq.min_samples method_ in
  if max_samples < least then
    bad_flag "--max-samples must be >= %d for method %s (got %d)" least
      (Yield_seq.method_to_string method_) max_samples;
  with_trace trace @@ fun () ->
  let s = make_setup circuit_spec lib_file sigma_scale size_idx in
  let d = Setup.fresh_design s in
  let tmax = Setup.tmax s ~factor in
  let res = Ssta.analyze d s.Setup.model in
  Printf.printf "%s: Tmax = %.1f ps (%.2f * D0), method = %s, target halfwidth %s\n"
    s.Setup.name tmax factor
    (Yield_seq.method_to_string method_)
    (if halfwidth > 0.0 then Printf.sprintf "%g" halfwidth else "none (run to cap)");
  let e =
    Yield_seq.estimate ~ci ?jobs ~method_ ~max_samples ~target_halfwidth:halfwidth
      ~seed ~tmax d s.Setup.model
  in
  Printf.printf "yield estimate: %.5f  [%.5f, %.5f] at %.0f%% CI  (stderr %.5f)\n"
    e.Yield_est.value e.Yield_est.ci_lo e.Yield_est.ci_hi (100.0 *. ci)
    e.Yield_est.stderr;
  Printf.printf "dies used:      %d  (effective sample size %.0f)\n"
    e.Yield_est.samples_used e.Yield_est.ess;
  Printf.printf "ssta surrogate: %.5f\n" (Ssta.timing_yield res ~tmax);
  let hw = Yield_est.halfwidth e in
  if hw > 0.0 && e.Yield_est.value > 0.0 && e.Yield_est.value < 1.0 then begin
    let need = Yield_est.naive_samples ~ci ~p:e.Yield_est.value ~halfwidth:hw in
    Printf.printf "naive MC would need ~%d dies for the same CI width (%.1fx)\n" need
      (float_of_int need /. float_of_int e.Yield_est.samples_used)
  end

let print_metrics tag tmax (m : Evaluate.metrics) =
  Printf.printf
    "%-6s leak: mean %8.2f uA  p99 %8.2f uA  nominal %8.2f uA | yield(ssta) %.4f%s | \
     high-vth %.0f%% width %.0f\n"
    tag
    (m.Evaluate.leak_mean /. 1000.0)
    (m.Evaluate.leak_p99 /. 1000.0)
    (m.Evaluate.leak_nominal /. 1000.0)
    m.Evaluate.yield_ssta
    (match m.Evaluate.yield_mc with
    | Some y -> Printf.sprintf " yield(mc %.4f)" y
    | None -> "")
    (100.0 *. m.Evaluate.high_vth_frac)
    m.Evaluate.total_width;
  ignore tmax

(* --profile is a formatted view of the metrics registry: the optimizers
   publish their stats records there (see DESIGN.md §14), so this table,
   --profile-json and `client metrics` always agree. *)
let print_profile ~mode ~jobs =
  let m ?(labels = [ ("mode", mode) ]) name =
    Option.value ~default:0.0 (Metrics.value_of ~labels name)
  in
  let i ?labels name = int_of_float (m ?labels name) in
  let level_batches =
    Printf.sprintf "%d on %d domains, %d inline (widest level %d gates)"
      (i "statleak_opt_par_levels_total")
      (Sl_util.Parallel.domains ~jobs)
      (i "statleak_opt_seq_levels_total")
      (i "statleak_opt_max_level_width")
  in
  (* partition-parallel evidence: cones driven by the hier engine and the
     domain count the candidate scan actually fanned out on *)
  let engine_rows =
    let parts = i "statleak_opt_partitions" in
    let rank_jobs = i ~labels:[] "statleak_opt_rank_jobs" in
    (if parts > 1 then
       [ ("partitions", Printf.sprintf "%d register-boundary cones (hier engine)" parts) ]
     else [])
    @
    if rank_jobs > 1 then
      [ ("candidate ranking", Printf.sprintf "parallel scan on %d domains" rank_jobs) ]
    else []
  in
  let bands name = i ~labels:[] ("statleak_batch_" ^ name) in
  let rows =
    [
      ( "refresh points",
        Printf.sprintf "%d (%d full analyses, %d engine syncs)"
          (i "statleak_opt_refreshes_total")
          (i "statleak_opt_full_refreshes_total")
          (i "statleak_opt_syncs_total") );
      ( "incremental updates",
        Printf.sprintf "%d single-gate delay updates"
          (i "statleak_opt_incr_updates_total") );
      ( "dirty cone",
        Printf.sprintf "%.1f gates/update mean, %d max, %d recomputed total"
          (m "statleak_opt_mean_cone")
          (i "statleak_opt_max_cone")
          (i "statleak_opt_propagated_gates_total") );
      ("exact-equality cutoffs", Printf.sprintf "%d" (i "statleak_opt_cutoffs_total"));
      ( "propagations/move",
        Printf.sprintf "%.1f per committed move" (m "statleak_opt_props_per_move") );
      ( "bands",
        Printf.sprintf "%d/%d committed, %d rolled back, %d bisections"
          (bands "bands_committed_total") (bands "bands_tried_total")
          (bands "bands_rolled_back_total") (bands "bisections_total") );
      ( "moves undone",
        Printf.sprintf "%d in %d passes" (i "statleak_opt_rollbacks_total")
          (i "statleak_opt_passes_total") );
      ( "time",
        Printf.sprintf "%.3f s total, %.3f s in refresh/sync, %.3f s ranking candidates"
          (m "statleak_opt_time_total_seconds")
          (m "statleak_opt_time_refresh_seconds")
          (m "statleak_opt_time_candidates_seconds") );
      ("level batches", level_batches);
    ]
    @ engine_rows
  in
  Printf.printf "profile: timing engine (metrics registry, mode=%s)\n" mode;
  let w = 1 + List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 rows in
  List.iter (fun (k, v) -> Printf.printf "  %-*s  %s\n" w (k ^ ":") v) rows

let profile_json_value () =
  let kind_str = function
    | `Counter -> "counter"
    | `Gauge -> "gauge"
    | `Histogram -> "histogram"
  in
  Json.List
    (List.map
       (fun (s : Metrics.sample) ->
         Json.Obj
           [
             ("name", Json.Str s.Metrics.name);
             ( "labels",
               Json.Obj
                 (List.map (fun (k, v) -> (k, Json.Str v)) s.Metrics.labels) );
             ("kind", Json.Str (kind_str s.Metrics.kind));
             ("value", Json.Num s.Metrics.value);
           ])
       (Metrics.snapshot ()))

let optimize circuit_spec lib_file sigma_scale size_idx factor eta mode samples partition
    jobs profile profile_json trace dump =
  check_jobs jobs;
  check_eta eta;
  check_factor factor;
  if samples < 0 then bad_flag "--samples must be >= 0 (got %d)" samples;
  with_trace trace @@ fun () ->
  let s = make_setup circuit_spec lib_file sigma_scale size_idx in
  let tmax = Setup.tmax s ~factor in
  Printf.printf "%s: D0 = %.1f ps, Tmax = %.1f ps (%.2fx), eta = %.2f, mode = %s\n"
    s.Setup.name s.Setup.d0 tmax factor eta mode;
  let d = Setup.fresh_design s in
  print_metrics "init" tmax (Evaluate.design ~mc_samples:samples ?jobs s ~tmax d);
  (match mode with
  | "det" ->
    let st = Sl_opt.Det_opt.optimize (Sl_opt.Det_opt.default_config ~tmax) d s.Setup.spec in
    Printf.printf
      "det optimizer: feasible=%b vth_moves=%d size_moves=%d trials=%d corner_dmax=%.1f\n"
      st.Sl_opt.Det_opt.feasible st.Sl_opt.Det_opt.vth_moves st.Sl_opt.Det_opt.size_moves
      st.Sl_opt.Det_opt.trials st.Sl_opt.Det_opt.corner_dmax
  | "lr" ->
    let st = Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax) d s.Setup.spec in
    Printf.printf "lr optimizer: feasible=%b iterations=%d repair_moves=%d corner_dmax=%.1f\n"
      st.Sl_opt.Lr_opt.feasible st.Sl_opt.Lr_opt.iterations st.Sl_opt.Lr_opt.repair_moves
      st.Sl_opt.Lr_opt.corner_dmax
  | ("stat" | "batch") as mode ->
    let jobs = ssta_jobs jobs in
    let optimize = if mode = "stat" then Sl_opt.Stat_opt.optimize else Sl_opt.Batch_opt.optimize in
    let st =
      optimize { (Opt_core.default_config ~tmax ~eta) with jobs; partition } d s.Setup.model
    in
    Printf.printf
      "%s optimizer: feasible=%b vth_moves=%d size_moves=%d trials=%d passes=%d \
       refreshes=%d rollbacks=%d bands=%d/%d bisections=%d yield=%.4f\n"
      mode st.Opt_core.feasible st.Opt_core.vth_moves st.Opt_core.size_moves
      st.Opt_core.trials st.Opt_core.passes st.Opt_core.refreshes st.Opt_core.rollbacks
      st.Opt_core.bands_committed st.Opt_core.bands_tried st.Opt_core.bisections
      st.Opt_core.final_yield;
    if profile then print_profile ~mode ~jobs
  | other ->
    Printf.eprintf "error: unknown mode %S (use det, lr, stat or batch)\n" other;
    exit 2);
  if profile_json then print_endline (Json.to_string (profile_json_value ()));
  print_metrics "final" tmax (Evaluate.design ~mc_samples:samples ?jobs s ~tmax d);
  match dump with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "# gate vth_idx size_idx\n";
    Array.iter
      (fun (g : Circuit.gate) ->
        if g.Circuit.kind <> Sl_netlist.Cell_kind.Pi then
          Printf.fprintf oc "%s %d %d\n" g.Circuit.name
            d.Design.vth_idx.(g.Circuit.id) d.Design.size_idx.(g.Circuit.id))
      s.Setup.circuit.Circuit.gates;
    close_out oc;
    Printf.printf "assignment written to %s\n" path

let paths circuit_spec lib_file size_idx k =
  let s = make_setup circuit_spec lib_file 1.0 size_idx in
  let d = Setup.fresh_design s in
  let ps = Sl_sta.Paths.k_most_critical d ~k in
  Printf.printf "%d most critical paths of %s:\n" (List.length ps) s.Setup.name;
  List.iter
    (fun p -> Format.printf "  %a@." (Sl_sta.Paths.pp s.Setup.circuit) p)
    ps

let ivc circuit_spec lib_file size_idx restarts =
  let s = make_setup circuit_spec lib_file 1.0 size_idx in
  let d = Setup.fresh_design s in
  let sv = Sl_leakage.State_leak.survey d ~seed:7 ~samples:200 in
  Printf.printf "standby leakage over 200 random vectors: mean %.2f uA, worst %.2f uA\n"
    (sv.Sl_util.Stats.mean /. 1000.0)
    (sv.Sl_util.Stats.max /. 1000.0);
  let r = Sl_leakage.State_leak.Ivc.optimize ~seed:3 ~restarts d in
  Printf.printf "IVC best vector: %.2f uA (%d evaluations)\n"
    (r.Sl_leakage.State_leak.Ivc.leak /. 1000.0)
    r.Sl_leakage.State_leak.Ivc.evaluations;
  let names =
    Array.map (fun id -> (Circuit.gate s.Setup.circuit id).Circuit.name)
      s.Setup.circuit.Circuit.inputs
  in
  Array.iteri
    (fun i b -> Printf.printf "  %s = %d\n" names.(i) (if b then 1 else 0))
    r.Sl_leakage.State_leak.Ivc.vector

let export circuit_spec format out =
  let c = load_circuit circuit_spec in
  let text =
    match format with
    | "verilog" -> Sl_netlist.Verilog.to_string c
    | "bench" -> Bench_format.to_string c
    | other ->
      Printf.eprintf "error: unknown format %S (use verilog or bench)\n" other;
      exit 2
  in
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path

let experiments quick jobs ids =
  check_jobs jobs;
  let outputs = Experiments.all ~quick ?jobs () in
  let selected =
    match ids with
    | [] -> outputs
    | ids ->
      List.filter
        (fun (o : Experiments.output) ->
          List.mem (String.lowercase_ascii o.Experiments.id) (List.map String.lowercase_ascii ids))
        outputs
  in
  List.iter
    (fun (o : Experiments.output) ->
      Printf.printf "=== %s: %s ===\n%s\n" o.Experiments.id o.Experiments.title
        o.Experiments.body)
    selected

(* ---------- serve / client ---------- *)

module Frame = Sl_util.Frame
module Server = Sl_serve.Server
module Serve_client = Sl_serve.Client

let serve socket jobs max_sessions log_level quiet =
  check_jobs (Some jobs);
  let level =
    if quiet then Obs_log.Error
    else
      match Obs_log.level_of_string log_level with
      | Some l -> l
      | None ->
        Printf.eprintf "error: unknown log level %S (use debug, info, warn or error)\n"
          log_level;
        exit 2
  in
  let cfg =
    {
      Server.socket_path = socket;
      jobs;
      max_sessions;
      snapshot_dir = None;
      log_level = level;
    }
  in
  let t =
    try Server.create cfg with
    | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot listen on %s: %s\n" socket (Unix.error_message e);
      exit 2
    | Invalid_argument msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  Server.serve t

(* Responses print as one "key: value" line per field; [_bits] twins and
   the frame type are wire-level detail and stay hidden. *)
let print_fields v =
  match v with
  | Json.Obj fields ->
    List.iter
      (fun (k, v) ->
        if k <> "type" && not (String.length k > 5 && Filename.check_suffix k "_bits")
        then
          match v with
          | Json.Str s -> Printf.printf "%s: %s\n" k s
          | other -> Printf.printf "%s: %s\n" k (Json.to_string other))
      fields
  | other -> print_endline (Json.to_string other)

let print_progress frame =
  match frame with
  | Json.Obj fields ->
    let parts =
      List.filter_map
        (fun (k, v) ->
          if k = "type" then None
          else
            Some
              (match v with
              | Json.Str s -> Printf.sprintf "%s=%s" k s
              | other -> Printf.sprintf "%s=%s" k (Json.to_string other)))
        fields
    in
    Printf.printf "progress: %s\n%!" (String.concat " " parts)
  | _ -> ()

let client_request lib sigma_scale size_idx factor eta mode method_ halfwidth
    max_samples seed ci detail jobs args =
  let circuit_field spec =
    (* a path is read client-side and shipped as netlist text, so the
       daemon never depends on the client's filesystem *)
    if Sys.file_exists spec && not (Sys.is_directory spec) then begin
      let text =
        let ic = open_in_bin spec in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let name = Filename.remove_extension (Filename.basename spec) in
      ( "netlist",
        Json.obj [ ("name", Json.Str name); ("text", Json.Str text) ] )
    end
    else ("bench", Json.Str spec)
  in
  let num x = Json.Num x in
  let int_ n = Json.Num (float_of_int n) in
  match args with
    | [ "ping" ] -> Json.obj [ ("type", Json.Str "ping") ]
    | [ "load"; session; circuit ] ->
      Json.obj
        ([
           ("type", Json.Str "load");
           ("session", Json.Str session);
           circuit_field circuit;
           ("sigma_scale", num sigma_scale);
           ("size_idx", int_ size_idx);
           ("tmax_factor", num factor);
         ]
        @ match lib with None -> [] | Some f -> [ ("lib", Json.Str f) ])
    | [ "edit"; session; op; gate; value ] ->
      let value =
        match float_of_string_opt value with
        | Some v -> num v
        | None ->
          Printf.eprintf "error: edit value %S is not a number\n" value;
          exit 2
      in
      Json.obj
        [
          ("type", Json.Str "edit");
          ("session", Json.Str session);
          ( "ops",
            Json.List
              [ Json.obj [ ("op", Json.Str op); ("gate", Json.Str gate); ("value", value) ] ]
          );
        ]
    | [ "analyze"; session ] ->
      Json.obj [ ("type", Json.Str "analyze"); ("session", Json.Str session) ]
    | [ "yield"; session ] ->
      Json.obj
        [
          ("type", Json.Str "yield");
          ("session", Json.Str session);
          ("method", Json.Str method_);
          ("halfwidth", num halfwidth);
          ("max_samples", int_ max_samples);
          ("seed", int_ seed);
          ("ci", num ci);
        ]
    | [ "optimize"; session ] ->
      Json.obj
        [
          ("type", Json.Str "optimize");
          ("session", Json.Str session);
          ("mode", Json.Str mode);
          ("eta", num eta);
          ("jobs", int_ (ssta_jobs jobs));
          ("detail", Json.Bool detail);
        ]
    | [ "checkpoint"; session; name ] ->
      Json.obj
        [
          ("type", Json.Str "checkpoint");
          ("session", Json.Str session);
          ("name", Json.Str name);
        ]
    | [ "rollback"; session; name ] ->
      Json.obj
        [
          ("type", Json.Str "rollback");
          ("session", Json.Str session);
          ("name", Json.Str name);
        ]
    | [ "sessions" ] -> Json.obj [ ("type", Json.Str "sessions") ]
    | [ "close"; session ] ->
      Json.obj [ ("type", Json.Str "close"); ("session", Json.Str session) ]
    | [ "stats" ] -> Json.obj [ ("type", Json.Str "stats") ]
    | [ "metrics" ] -> Json.obj [ ("type", Json.Str "metrics") ]
    | [ "shutdown" ] -> Json.obj [ ("type", Json.Str "shutdown") ]
    | [] ->
      Printf.eprintf
        "error: client needs a command (ping, load, edit, analyze, yield, optimize, \
         checkpoint, rollback, sessions, close, stats, metrics, shutdown)\n";
      exit 2
    | cmd :: _ ->
      Printf.eprintf "error: bad client command or argument count for %S\n" cmd;
      exit 2

let client socket lib sigma_scale size_idx factor eta mode method_ halfwidth
    max_samples seed ci detail jobs args =
  check_jobs jobs;
  check_eta eta;
  let req =
    client_request lib sigma_scale size_idx factor eta mode method_ halfwidth
      max_samples seed ci detail jobs args
  in
  try
    let resp =
      Serve_client.with_connection ~socket (fun c ->
          Serve_client.request ~on_progress:print_progress c req)
    in
    (* `client metrics` prints the exposition text raw, so the output can
       be scraped or diffed directly *)
    (match (args, Json.str "metrics" resp) with
    | [ "metrics" ], Some text -> print_string text
    | _ -> print_fields resp)
  with
  | Serve_client.Server_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "error: cannot reach server at %s: %s\n" socket
      (Unix.error_message e);
    exit 2
  | Frame.Closed ->
    Printf.eprintf "error: server closed the connection\n";
    exit 1
  | Frame.Protocol_error msg ->
    Printf.eprintf "error: protocol: %s\n" msg;
    exit 1

(* ---------- command wiring ---------- *)

let bench_list_cmd =
  Cmd.v (Cmd.info "bench-list" ~doc:"List the built-in benchmark suite.")
    Term.(const bench_list $ const ())

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Print circuit statistics.")
    Term.(const circuit_info $ circuit_arg)

let sta_cmd =
  Cmd.v (Cmd.info "sta" ~doc:"Deterministic timing analysis and critical path.")
    Term.(const sta $ circuit_arg $ lib_arg $ size_idx_arg)

let ssta_cmd =
  Cmd.v
    (Cmd.info "ssta" ~doc:"Statistical timing: delay distribution, yield, quantiles.")
    Term.(
      const ssta $ circuit_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg $ factor_arg
      $ Arg.(
          value
          & opt int 0
          & info [ "critical" ] ~docv:"N"
              ~doc:"Also list the N most statistically critical gates.")
      $ partition_arg $ jobs_arg $ trace_arg)

let leakage_cmd =
  Cmd.v (Cmd.info "leakage" ~doc:"Statistical leakage: mean, std, percentiles.")
    Term.(const leakage $ circuit_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg)

let mc_cmd =
  Cmd.v (Cmd.info "mc" ~doc:"Monte-Carlo reference evaluation.")
    Term.(
      const mc $ circuit_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg $ factor_arg
      $ seed_arg $ samples_arg $ jobs_arg)

let yield_cmd =
  let method_arg =
    let doc =
      "Estimator: $(b,naive), $(b,lhs), $(b,is) (mean-shifted importance \
       sampling), $(b,cv) (SSTA control variate) or $(b,is+cv)."
    in
    Arg.(value & opt string "is+cv" & info [ "method" ] ~docv:"M" ~doc)
  in
  let ci_arg =
    let doc = "Confidence level of the reported interval." in
    Arg.(value & opt float 0.95 & info [ "ci" ] ~docv:"P" ~doc)
  in
  let halfwidth_arg =
    let doc = "Target CI half-width; sampling stops once reached (0 = run to the cap)." in
    Arg.(value & opt float 0.005 & info [ "halfwidth" ] ~docv:"W" ~doc)
  in
  let max_samples_arg =
    let doc = "Die cap for the sequential estimator." in
    Arg.(value & opt int 200_000 & info [ "max-samples" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:
         "Error-controlled timing-yield estimation (variance-reduced Monte \
          Carlo with sequential stopping).")
    Term.(
      const yield $ circuit_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg
      $ factor_arg $ method_arg $ ci_arg $ halfwidth_arg $ max_samples_arg
      $ seed_arg $ jobs_arg $ trace_arg)

let optimize_cmd =
  let mode_arg =
    let doc = "Optimizer: $(b,stat) (yield-constrained statistical), $(b,batch) (slack-band batched statistical), $(b,det) (3-sigma corner greedy) or $(b,lr) (3-sigma corner Lagrangian relaxation)." in
    Arg.(value & opt string "stat" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let dump_arg =
    let doc = "Write the final per-gate assignment to FILE." in
    Arg.(value & opt (some string) None & info [ "dump-assignment" ] ~docv:"FILE" ~doc)
  in
  let mc_arg =
    let doc = "Monte-Carlo dies for before/after verification (0 = skip)." in
    Arg.(value & opt int 1000 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let profile_arg =
    let doc =
      "Print a timing-engine breakdown after a $(b,stat) or $(b,batch) run: \
       full refreshes vs. incremental updates, dirty-cone statistics, timing \
       propagations per committed move, and time spent in the engine.  The \
       table is rendered from the process metrics registry (DESIGN.md §14)."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let profile_json_arg =
    let doc =
      "Dump the full metrics registry as a JSON array of \
       {name, labels, kind, value} samples after the run."
    in
    Arg.(value & flag & info [ "profile-json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run a leakage optimizer and report before/after metrics.")
    Term.(
      const optimize $ circuit_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg
      $ factor_arg $ eta_arg $ mode_arg $ mc_arg $ partition_arg $ jobs_arg
      $ profile_arg $ profile_json_arg $ trace_arg $ dump_arg)

let paths_cmd =
  let k_arg =
    let doc = "Number of paths to list." in
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
  in
  Cmd.v (Cmd.info "paths" ~doc:"List the K most critical paths.")
    Term.(const paths $ circuit_arg $ lib_arg $ size_idx_arg $ k_arg)

let ivc_cmd =
  let restarts_arg =
    let doc = "Greedy descent restarts." in
    Arg.(value & opt int 4 & info [ "restarts" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "ivc" ~doc:"Input-vector control: find the lowest-leakage standby vector.")
    Term.(const ivc $ circuit_arg $ lib_arg $ size_idx_arg $ restarts_arg)

let export_cmd =
  let format_arg =
    let doc = "Output format: $(b,verilog) (structural primitives) or $(b,bench)." in
    Arg.(value & opt string "verilog" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_arg =
    let doc = "Output file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "export" ~doc:"Export a circuit as structural Verilog or .bench.")
    Term.(const export $ circuit_arg $ format_arg $ out_arg)

let experiments_cmd =
  let quick_arg =
    let doc = "Reduced suites and sample counts (seconds instead of minutes)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let ids_arg =
    let doc = "Experiment ids to run (e.g. T2 F5); default all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const experiments $ quick_arg $ jobs_arg $ ids_arg)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value
    & opt string (Filename.concat (Filename.get_temp_dir_name ()) "statleak.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let jobs_arg =
    let doc =
      "Worker domains (= maximum simultaneous client connections), at most 64."
    in
    Arg.(value & opt int 4 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let max_sessions_arg =
    let doc =
      "Sessions kept live in memory; beyond this the least-recently-used idle \
       session is evicted to a disk snapshot and restored transparently on its \
       next use."
    in
    Arg.(value & opt int 8 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let log_level_arg =
    let doc =
      "Log threshold: $(b,debug) (per-request lines), $(b,info) (lifecycle \
       events), $(b,warn) or $(b,error).  Lines carry a timestamp, the level \
       and the session name."
    in
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let quiet_arg =
    let doc = "Shorthand for $(b,--log-level) $(b,error)." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the optimization daemon: persistent incremental-SSTA sessions \
          behind a Unix-socket protocol (see DESIGN.md §12).")
    Term.(
      const serve $ socket_arg $ jobs_arg $ max_sessions_arg $ log_level_arg
      $ quiet_arg)

let client_cmd =
  let detail_arg =
    let doc = "Ask $(b,optimize) to return the full per-gate assignment." in
    Arg.(value & flag & info [ "detail" ] ~doc)
  in
  let method_arg =
    let doc = "Estimator for $(b,yield) (naive, lhs, is, cv, is+cv)." in
    Arg.(value & opt string "is+cv" & info [ "method" ] ~docv:"M" ~doc)
  in
  let ci_arg =
    let doc = "Confidence level for $(b,yield)." in
    Arg.(value & opt float 0.95 & info [ "ci" ] ~docv:"P" ~doc)
  in
  let halfwidth_arg =
    let doc = "Target CI half-width for $(b,yield)." in
    Arg.(value & opt float 0.005 & info [ "halfwidth" ] ~docv:"W" ~doc)
  in
  let max_samples_arg =
    let doc = "Die cap for $(b,yield)." in
    Arg.(value & opt int 200_000 & info [ "max-samples" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc = "Optimizer for $(b,optimize): $(b,stat) or $(b,batch)." in
    Arg.(value & opt string "stat" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let args_arg =
    let doc =
      "Command and operands: $(b,ping) | $(b,load) SESSION CIRCUIT | $(b,edit) \
       SESSION resize|reassign-vth|set-load GATE VALUE | $(b,analyze) SESSION | \
       $(b,yield) SESSION | $(b,optimize) SESSION | $(b,checkpoint) SESSION NAME \
       | $(b,rollback) SESSION NAME | $(b,sessions) | $(b,close) SESSION | \
       $(b,stats) | $(b,metrics) (Prometheus-style text exposition) | \
       $(b,shutdown)"
    in
    Arg.(value & pos_all string [] & info [] ~docv:"CMD" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,statleak serve) daemon (see DESIGN.md §12).")
    Term.(
      const client $ socket_arg $ lib_arg $ sigma_scale_arg $ size_idx_arg
      $ factor_arg $ eta_arg $ mode_arg $ method_arg $ halfwidth_arg
      $ max_samples_arg $ seed_arg $ ci_arg $ detail_arg $ jobs_arg $ args_arg)

let () =
  let doc = "statistical leakage optimization under process variation (DAC 2004 reproduction)" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "statleak" ~version:"1.0.0" ~doc)
          [
            bench_list_cmd; info_cmd; sta_cmd; ssta_cmd; leakage_cmd; mc_cmd;
            yield_cmd; optimize_cmd; paths_cmd; ivc_cmd; export_cmd;
            experiments_cmd; serve_cmd; client_cmd;
          ]))
