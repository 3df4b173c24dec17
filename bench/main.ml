(* Reproduction harness.

   Part 1 regenerates every table and figure of the evaluation (DESIGN.md
   §5, recorded in EXPERIMENTS.md) by running the experiment drivers and
   printing their output.

   Part 2 is a Bechamel micro-benchmark suite with one Test.make per
   experiment: each test measures the computational kernel that dominates
   that experiment (e.g. T2's kernel is one statistical optimization of
   add32), so regressions in any experiment's cost are visible without
   re-running the full reproduction.

   Part 3 checks the sl_yield sequential estimator on every run: the
   estimate must be bit-identical for jobs in {1,2,4}, and (full mode)
   IS+CV must reach the target CI width on mult8 at eta=0.99 with at
   least 10x fewer dies than naive MC.

   Part 4 prices the greedy optimizer's incremental timing engine against
   the full-refresh flow it replaced, over the benchmark ladder.  That
   flow walks the same trajectory and pays one from-scratch analysis +
   backward sweep per exact re-measure point, so it is counted, not run:
   refreshes x one measured from-scratch refresh in wall-clock, and 2n
   propagations per refresh against the incremental run's propagations
   plus 2n per from-scratch build.  Full mode requires >= 2x fewer
   propagations on rand1700 and mult16.

   Part 5 races the greedy statistical optimizer against the slack-band
   batched one on the same ladder, counting timing propagations on a
   uniform scale; on every run it requires feasibility parity and a
   leakage regression <= 1%, and (full mode) >= 10x fewer propagations
   than the greedy flow's from-scratch re-measure cost on rand1700 and
   mult16.

   Part 6 probes the 30k-100k-gate workload axis: on every run the
   level-parallel SSTA engine must be bit-identical to the sequential
   sweep for jobs in {1,2,4}, and analyze wall-clock is measured
   sequential vs parallel; full mode additionally runs the batched
   optimizer to completion at each size and requires it to end feasible.

   Part 7 bounds the observability layer's cost: analyze on rand30k is
   timed with the trace sink Disabled (the production default: one atomic
   load per span) and with Discard (the full recording path, events
   dropped), and the Discard/Disabled overhead must stay under 2%.  A
   short Memory-sink run then collects per-span totals (ssta.forward /
   ssta.backward / opt.rank) for the JSON report.

   Part 8 races the flat SSTA engine against the partition-parallel
   hierarchical one on spipe30k, the register-cut pipeline workload: on
   every run the hier engine must be bit-identical to flat for jobs in
   {1,2,4}, and full mode additionally races the batched optimizer in
   flat vs partition mode, requiring move-for-move identical
   trajectories (same assignment, bitwise-equal leakage and yield).

   "--quick" shrinks part 1 to a smoke run, parts 3-5 to the small
   circuits, part 6 to rand30k without the optimizer run and part 8 to
   the analyze race; "--no-bechamel" skips part 2;
   "--assert-par-speedup" (for multi-core CI) fails part 6 unless
   parallel analyze is >= 1.5x faster than sequential, and part 8 unless
   hier analyze at jobs=N is >= 1.5x (jobs=2) / 2x (jobs>=4) faster than
   hier analyze at jobs=1 (and, full mode, partition-mode batch optimize
   >= 1.5x over its own jobs=1 run); "--json PATH" additionally writes a
   machine-readable BENCH_results.json (schema statleak-bench/7, with
   the host core count) with per-experiment wall-clock, the key metrics
   of parts 2-8 and a snapshot of the process metrics registry;
   "--trace PATH" records every span of the whole bench run as Chrome
   trace-event JSON. *)

module Experiments = Statleak.Experiments
module Setup = Statleak.Setup
module Benchmarks = Sl_netlist.Benchmarks
module Circuit = Sl_netlist.Circuit
module Design = Sl_tech.Design
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Ssta = Sl_ssta.Ssta
module Hier = Sl_ssta.Hier
module Canonical = Sl_ssta.Canonical
module Leak_ssta = Sl_leakage.Leak_ssta
module Mc = Sl_mc.Mc
module Det_opt = Sl_opt.Det_opt
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Anneal = Sl_opt.Anneal
module Seq = Sl_yield.Seq
module Estimate = Sl_yield.Estimate
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics
module Json = Sl_util.Json

let print_experiments ~quick ~jobs =
  let t0 = Unix.gettimeofday () in
  let outputs, times = Experiments.all_timed ~quick ~jobs () in
  List.iter
    (fun (o : Experiments.output) ->
      Printf.printf "=== %s: %s ===\n%s\n%!" o.Experiments.id o.Experiments.title
        o.Experiments.body)
    outputs;
  Printf.printf "(experiment reproduction took %.1f s)\n\n%!" (Unix.gettimeofday () -. t0);
  times

(* ---------- Monte-Carlo seq-vs-parallel speedup ---------- *)

type speedup = { circuit : string; t_seq : float; t_par : float; par_jobs : int }

let run_speedup ~quick ~jobs =
  (* largest benchmark circuit: where parallel MC matters most *)
  let name, cells =
    List.fold_left
      (fun ((_, best) as acc) n ->
        match Benchmarks.by_name n with
        | Some c when Circuit.num_cells c > best -> (n, Circuit.num_cells c)
        | _ -> acc)
      ("", 0) Benchmarks.names
  in
  let samples = if quick then 1000 else 5000 in
  let s = Setup.of_benchmark name in
  let d = Setup.fresh_design s in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf "=== Monte-Carlo speedup: %s (%d cells), %d dies ===\n%!" name cells
    samples;
  let r_seq, t_seq = time (fun () -> Mc.run ~jobs:1 ~seed:47 ~samples d s.Setup.model) in
  let r_par, t_par = time (fun () -> Mc.run ~jobs ~seed:47 ~samples d s.Setup.model) in
  let identical = r_seq.Mc.delay = r_par.Mc.delay && r_seq.Mc.leak = r_par.Mc.leak in
  Printf.printf
    "jobs=1: %6.2f s    jobs=%d: %6.2f s    speedup: %.2fx    bit-identical: %b\n\n%!"
    t_seq jobs t_par (t_seq /. t_par) identical;
  if not identical then failwith "speedup bench: parallel MC diverged from sequential";
  { circuit = name; t_seq; t_par; par_jobs = jobs }

(* ---------- sl_yield: determinism + variance-reduction checks ---------- *)

type yield_check = {
  yc_circuit : string;
  eta : float;
  halfwidth : float;
  naive_dies : int;
  iscv_dies : int;
  iscv_yield : float;
  iscv_stderr : float;
}

let run_yield_checks ~quick ~jobs =
  let name, eta = if quick then ("add32", 0.95) else ("mult8", 0.99) in
  let halfwidth = Float.max (0.25 *. (1.0 -. eta)) 5e-4 in
  let s = Setup.of_benchmark name in
  let d = Setup.fresh_design s in
  let res = Ssta.analyze d s.Setup.model in
  let tmax = Ssta.tmax_for_yield res ~p:eta in
  Printf.printf "=== sl_yield checks: %s, eta=%.3f, hw=%.4f ===\n%!" name eta halfwidth;
  let run ?(jobs = jobs) method_ =
    Seq.estimate ~jobs ~method_ ~batch_chunks:1 ~max_samples:200_000
      ~target_halfwidth:halfwidth ~seed:97 ~tmax d s.Setup.model
  in
  (* the determinism contract, asserted on every bench run: the whole
     estimate record (value, CI, dies, ESS) is a pure function of the
     seed, never of the worker count *)
  List.iter
    (fun m ->
      let base = run ~jobs:1 m in
      List.iter
        (fun j ->
          if run ~jobs:j m <> base then
            failwith
              (Printf.sprintf "yield check: %s diverged at jobs=%d"
                 (Seq.method_to_string m) j))
        [ 2; 4 ])
    [ Seq.Naive; Seq.Lhs; Seq.Is; Seq.Cv; Seq.Is_cv ];
  Printf.printf "bit-identical across jobs {1,2,4}: all methods\n%!";
  let e_naive = run Seq.Naive and e_iscv = run Seq.Is_cv in
  let ratio = float_of_int e_naive.Estimate.samples_used
              /. float_of_int e_iscv.Estimate.samples_used in
  Printf.printf
    "naive: %d dies    is+cv: %d dies (yield %.4f, stderr %.5f)    savings %.1fx\n\n%!"
    e_naive.Estimate.samples_used e_iscv.Estimate.samples_used
    e_iscv.Estimate.value e_iscv.Estimate.stderr ratio;
  if (not quick) && ratio < 10.0 then
    failwith
      (Printf.sprintf "yield check: is+cv savings %.1fx < 10x on %s" ratio name);
  {
    yc_circuit = name;
    eta;
    halfwidth;
    naive_dies = e_naive.Estimate.samples_used;
    iscv_dies = e_iscv.Estimate.samples_used;
    iscv_yield = e_iscv.Estimate.value;
    iscv_stderr = e_iscv.Estimate.stderr;
  }

(* ---------- optimizer: counted full refresh vs incremental (part 4) ---------- *)

type opt_speedup = {
  os_circuit : string;
  os_cells : int;
  os_t_full : float;       (* counted: refreshes x one from-scratch refresh *)
  os_t_inc : float;
  os_props_full : int;     (* 2n per exact re-measure point *)
  os_props_inc : int;      (* propagations + 2n per from-scratch build *)
  os_updates : int;
  os_propagated : int;
  os_mean_cone : float;
  os_max_cone : int;
}

(* The full-refresh flow walks the incremental engine's trajectory and
   pays one from-scratch analysis + backward sweep at each of its
   [refreshes] exact re-measure points, so it is counted rather than run:
   in wall-clock as refreshes x one measured from-scratch refresh, and in
   propagations on part 5's uniform scale (2n per from-scratch analysis).
   The >= 2x gate is on the propagation ratio — a machine-independent
   count; the counted wall-clock ratio is reported but too noisy on
   rand1700 to gate. *)
let run_opt_speedup ~quick =
  let names =
    if quick then [ "add32"; "mult8" ]
    else [ "add32"; "mult8"; "rand1200"; "rand1700"; "mult16" ]
  in
  Printf.printf
    "=== Optimizer timing engine: counted full refresh vs incremental \
     (Tmax=1.25*D0, eta=0.95) ===\n%!";
  let rows =
    List.map
      (fun name ->
        let s = Setup.of_benchmark name in
        let n = Circuit.num_gates s.Setup.circuit in
        let cells = Circuit.num_cells s.Setup.circuit in
        let tmax = Setup.tmax s ~factor:1.25 in
        let d = Setup.fresh_design s in
        let t0 = Unix.gettimeofday () in
        let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d s.Setup.model in
        let t_inc = Unix.gettimeofday () -. t0 in
        let t_full =
          float_of_int st.Stat_opt.refreshes *. Experiments.full_refresh_seconds s
        in
        let props_full = 2 * n * st.Stat_opt.refreshes in
        let props_inc =
          st.Stat_opt.propagated_gates + (2 * n * st.Stat_opt.full_refreshes)
        in
        Printf.printf
          "%-10s %5d cells   full (counted) %7.2f s   incr %7.2f s   speedup %5.2fx   \
           props %5.2fx   mean cone %6.1f gates/move (max %d) over %d updates\n%!"
          name cells t_full t_inc (t_full /. t_inc)
          (float_of_int props_full /. float_of_int props_inc)
          st.Stat_opt.mean_cone st.Stat_opt.max_cone st.Stat_opt.incr_updates;
        {
          os_circuit = name;
          os_cells = cells;
          os_t_full = t_full;
          os_t_inc = t_inc;
          os_props_full = props_full;
          os_props_inc = props_inc;
          os_updates = st.Stat_opt.incr_updates;
          os_propagated = st.Stat_opt.propagated_gates;
          os_mean_cone = st.Stat_opt.mean_cone;
          os_max_cone = st.Stat_opt.max_cone;
        })
      names
  in
  print_newline ();
  if not quick then
    List.iter
      (fun r ->
        let ratio = float_of_int r.os_props_full /. float_of_int r.os_props_inc in
        if (r.os_circuit = "rand1700" || r.os_circuit = "mult16") && ratio < 2.0 then
          failwith
            (Printf.sprintf "opt speedup: %s only %.2fx < 2x fewer propagations"
               r.os_circuit ratio))
      rows;
  rows

(* ---------- optimizer: greedy vs slack-band batched (part 5) ---------- *)

type batch_speedup = {
  bs_circuit : string;
  bs_cells : int;
  bs_stat_props : int;        (* greedy, incremental engine *)
  bs_stat_props_full : int;   (* greedy, from-scratch re-measure equivalent *)
  bs_batch_props : int;
  bs_ratio_incr : float;
  bs_ratio_full : float;
  bs_leak_delta_pct : float;
  bs_batch_ppm : float;
  bs_t_stat : float;
  bs_t_batch : float;
}

(* Timing propagations on a uniform scale: every arrival or required-time
   recomputation counts 1, and a from-scratch analysis counts 2n (n
   forward + n backward).  The greedy optimizer is charged two ways: with
   its incremental engine (propagations + 2n per from-scratch build), and
   as the pre-engine flow that paid a full analysis at each of its
   [refreshes] exact re-measure points — that flow walks the incremental
   engine's trajectory (the engine is bit-exact), so the same run prices
   both.  The headline
   ratio (and the >=10x gate below) is against the from-scratch flow,
   which is what "one exact re-measure per 25 moves" actually costs
   without the incremental engine; the incremental-engine ratio is
   reported alongside, and batching must beat it too. *)
let run_batch_speedup ~quick =
  let names =
    if quick then [ "add32"; "mult8" ]
    else [ "add32"; "mult8"; "rand1200"; "rand1700"; "mult16" ]
  in
  Printf.printf
    "=== Optimizer: greedy stat_opt vs slack-band batch_opt (Tmax=1.25*D0, \
     eta=0.95) ===\n%!";
  let rows =
    List.map
      (fun name ->
        let s = Setup.of_benchmark name in
        let n = Circuit.num_gates s.Setup.circuit in
        let tmax = Setup.tmax s ~factor:1.25 in
        let d_s = Setup.fresh_design s in
        let t0 = Unix.gettimeofday () in
        let st_s = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d_s s.Setup.model in
        let t_stat = Unix.gettimeofday () -. t0 in
        let leak_s = Leak_ssta.mean (Leak_ssta.create d_s s.Setup.model) in
        let d_b = Setup.fresh_design s in
        let t0 = Unix.gettimeofday () in
        let st_b = Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d_b s.Setup.model in
        let t_batch = Unix.gettimeofday () -. t0 in
        let leak_b = Leak_ssta.mean (Leak_ssta.create d_b s.Setup.model) in
        if st_s.Stat_opt.feasible <> st_b.Batch_opt.feasible then
          failwith
            (Printf.sprintf "batch speedup: feasibility diverged on %s" name);
        let stat_props =
          st_s.Stat_opt.propagated_gates + (2 * n * st_s.Stat_opt.full_refreshes)
        in
        let stat_props_full = 2 * n * st_s.Stat_opt.refreshes in
        let batch_props =
          st_b.Batch_opt.propagated_gates + (2 * n * st_b.Batch_opt.full_refreshes)
        in
        let leak_delta_pct = 100.0 *. (leak_b -. leak_s) /. leak_s in
        let row =
          {
            bs_circuit = name;
            bs_cells = Circuit.num_cells s.Setup.circuit;
            bs_stat_props = stat_props;
            bs_stat_props_full = stat_props_full;
            bs_batch_props = batch_props;
            bs_ratio_incr = float_of_int stat_props /. float_of_int batch_props;
            bs_ratio_full =
              float_of_int stat_props_full /. float_of_int batch_props;
            bs_leak_delta_pct = leak_delta_pct;
            bs_batch_ppm = st_b.Batch_opt.props_per_move;
            bs_t_stat = t_stat;
            bs_t_batch = t_batch;
          }
        in
        Printf.printf
          "%-10s %5d cells   props: greedy %8d (full-equiv %8d)  batch %7d   \
           ratio %5.2fx (%5.2fx vs full)   leak %+.3f%%   %4.1f props/move\n%!"
          name row.bs_cells stat_props stat_props_full batch_props
          row.bs_ratio_incr row.bs_ratio_full leak_delta_pct
          st_b.Batch_opt.props_per_move;
        row)
      names
  in
  print_newline ();
  List.iter
    (fun r ->
      (* batching must never lose to the incremental greedy on propagation
         count (beyond trivial sizes), and must stay within 1% of its
         leakage everywhere *)
      if r.bs_cells > 100 && r.bs_ratio_incr <= 1.0 then
        failwith
          (Printf.sprintf "batch speedup: %s ratio %.2fx <= 1x vs incremental"
             r.bs_circuit r.bs_ratio_incr);
      if r.bs_leak_delta_pct > 1.0 then
        failwith
          (Printf.sprintf "batch speedup: %s leak regression %.3f%% > 1%%"
             r.bs_circuit r.bs_leak_delta_pct);
      if
        (not quick)
        && (r.bs_circuit = "rand1700" || r.bs_circuit = "mult16")
        && r.bs_ratio_full < 10.0
      then
        failwith
          (Printf.sprintf "batch speedup: %s only %.2fx < 10x vs full re-measure"
             r.bs_circuit r.bs_ratio_full))
    rows;
  rows

(* ---------- level-parallel SSTA at scale (part 6) ---------- *)

type scale_row = {
  sc_circuit : string;
  sc_cells : int;
  sc_levels : int;
  sc_widest : int;
  sc_t_seq : float;         (* one analyze, jobs=1, best of 3 *)
  sc_t_par : float;         (* one analyze, jobs=N, best of 3 *)
  sc_par_levels : int;      (* level batches the jobs=N run put on domains *)
  sc_seq_levels : int;
  sc_opt_seconds : float;   (* batch optimize wall-clock; nan in quick mode *)
  sc_opt_feasible : bool;
  sc_opt_moves : int;
}

(* FNV-style fold over the raw IEEE bits of every canonical form: equal
   digests across jobs values is the bit-identity contract, stronger than
   structural (=) which would call 0. and -0. equal. *)
let canon_digest (cs : Canonical.t array) =
  let h = ref 0xcbf29ce484222325L in
  let mix f =
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float f)) 0x100000001b3L
  in
  Array.iter
    (fun (c : Canonical.t) ->
      mix c.Canonical.mean;
      mix c.Canonical.rnd;
      Array.iter mix c.Canonical.coeffs)
    cs;
  !h

(* The workload axis the standard ladder (<= 3500 cells) cannot probe:
   30k-100k-gate circuits where one analyze is tens of milliseconds and
   per-level widths clear the parallel threshold.  Every run asserts the
   level-parallel engine bit-identical to sequential for jobs in {1,2,4};
   [--assert-par-speedup] (the multi-core CI gate) additionally requires
   jobs=N analyze >= 1.5x faster than jobs=1 — meaningless on a 1-core
   host, hence opt-in.  Full mode also runs the batched optimizer to
   completion at each size. *)
let run_scale ~quick ~jobs ~assert_par_speedup =
  let names =
    if quick then [ "rand30k" ] else [ "rand30k"; "spipe30k"; "rand100k" ]
  in
  let cores = Sl_util.Parallel.default_jobs () in
  Printf.printf "=== Level-parallel SSTA at scale (jobs=%d, %d cores) ===\n%!"
    jobs cores;
  let rows =
    List.map
      (fun name ->
        let s = Setup.of_benchmark name in
        let c = s.Setup.circuit in
        let levels = Circuit.levels c in
        let widest =
          Array.fold_left (fun a l -> Stdlib.max a (Array.length l)) 0 levels
        in
        let d = Setup.fresh_design s in
        (* bit-identity across jobs values, forward and backward *)
        let digest j =
          let res = Ssta.analyze ~jobs:j d s.Setup.model in
          let bwd = Ssta.backward ~jobs:j c res in
          ( canon_digest res.Ssta.arrival,
            canon_digest bwd,
            canon_digest [| res.Ssta.circuit_delay |] )
        in
        let base = digest 1 in
        List.iter
          (fun j ->
            if digest j <> base then
              failwith
                (Printf.sprintf "scale: %s diverged at jobs=%d" name j))
          [ 2; 4 ];
        let best f =
          let t = ref infinity in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            ignore (f ());
            t := Float.min !t (Unix.gettimeofday () -. t0)
          done;
          !t
        in
        let t_seq = best (fun () -> Ssta.analyze ~jobs:1 d s.Setup.model) in
        let stats = Ssta.par_stats () in
        let t_par = best (fun () -> Ssta.analyze ~jobs ~stats d s.Setup.model) in
        Printf.printf
          "%-10s %6d cells %4d levels (widest %5d)   analyze jobs=1 %6.3f s  \
           jobs=%d %6.3f s  speedup %.2fx\n%!"
          name (Circuit.num_cells c) (Array.length levels) widest t_seq jobs
          t_par (t_seq /. t_par);
        if assert_par_speedup && t_seq /. t_par < 1.5 then
          failwith
            (Printf.sprintf
               "scale: %s analyze speedup %.2fx < 1.5x at jobs=%d (%d cores)"
               name (t_seq /. t_par) jobs cores);
        let opt_seconds, opt_feasible, opt_moves =
          if quick then (Float.nan, true, 0)
          else begin
            let tmax = Setup.tmax s ~factor:1.25 in
            let d_o = Setup.fresh_design s in
            let t0 = Unix.gettimeofday () in
            let st =
              Batch_opt.optimize
                { (Batch_opt.default_config ~tmax ~eta:0.95) with
                  Batch_opt.jobs }
                d_o s.Setup.model
            in
            let t_opt = Unix.gettimeofday () -. t0 in
            let moves = st.Batch_opt.vth_moves + st.Batch_opt.size_moves in
            Printf.printf
              "%-10s batch optimize: %7.1f s  feasible=%b  %d moves  \
               yield %.4f  (%d par / %d inline level batches)\n%!"
              name t_opt st.Batch_opt.feasible moves st.Batch_opt.final_yield
              st.Batch_opt.par_levels st.Batch_opt.seq_levels;
            (* a feasible start (Tmax = 1.25 D0) must end feasible — same
               parity contract parts 4/5 enforce on the ladder *)
            if not st.Batch_opt.feasible then
              failwith (Printf.sprintf "scale: %s optimize ended infeasible" name);
            (t_opt, st.Batch_opt.feasible, moves)
          end
        in
        {
          sc_circuit = name;
          sc_cells = Circuit.num_cells c;
          sc_levels = Array.length levels;
          sc_widest = widest;
          sc_t_seq = t_seq;
          sc_t_par = t_par;
          sc_par_levels = stats.Ssta.par_levels;
          sc_seq_levels = stats.Ssta.seq_levels;
          sc_opt_seconds = opt_seconds;
          sc_opt_feasible = opt_feasible;
          sc_opt_moves = opt_moves;
        })
      names
  in
  print_newline ();
  rows

(* ---------- observability overhead (part 7) ---------- *)

type obs_row = {
  ob_circuit : string;
  ob_t_disabled : float;
  ob_t_discard : float;
  ob_overhead_pct : float;
  ob_span_totals : (string * int * float) list;  (* name, count, total us *)
}

(* The <2% bound is asserted against the Discard sink — the FULL
   recording path (per-domain buffer lookup, two clock reads, event
   construction) minus only the final store.  The production default
   (Disabled) is strictly cheaper: one atomic load and a branch per
   span.  So passing here bounds both configurations. *)
let run_obs_overhead ~quick ~tracing =
  let name = "rand30k" in
  let s = Setup.of_benchmark name in
  let d = Setup.fresh_design s in
  let reps = if quick then 5 else 7 in
  let best f =
    ignore (f ());  (* warm-up: caches, allocator *)
    let t = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  Printf.printf
    "=== Observability overhead: %s analyze, trace sink Disabled vs Discard \
     ===\n%!"
    name;
  let saved_sink = Trace.sink () in
  Trace.set_sink Trace.Disabled;
  let t_disabled = best (fun () -> Ssta.analyze d s.Setup.model) in
  Trace.set_sink Trace.Discard;
  let t_discard = best (fun () -> Ssta.analyze d s.Setup.model) in
  let overhead_pct = 100.0 *. ((t_discard /. t_disabled) -. 1.0) in
  Printf.printf
    "disabled %6.4f s   discard %6.4f s   overhead %+.2f%% (bound: < 2%%)\n%!"
    t_disabled t_discard overhead_pct;
  if overhead_pct >= 2.0 then
    failwith
      (Printf.sprintf "obs overhead: %.2f%% >= 2%% on %s analyze" overhead_pct
         name);
  (* span totals for the report: a short Memory-sink run over the three
     span families the report keys on.  When the whole bench is being
     traced (--trace) the events just join the big trace; otherwise they
     live in a scratch buffer we drop afterwards. *)
  if not tracing then Trace.clear ();
  Trace.set_sink Trace.Memory;
  let res = Ssta.analyze d s.Setup.model in
  ignore (Ssta.backward s.Setup.circuit res);
  let s_small = Setup.of_benchmark "add32" in
  let d_small = Setup.fresh_design s_small in
  let tmax = Setup.tmax s_small ~factor:1.25 in
  ignore
    (Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d_small
       s_small.Setup.model);
  let totals = Hashtbl.create 8 in
  (match Json.list "traceEvents" (Trace.export ()) with
  | None -> ()
  | Some evs ->
    List.iter
      (fun ev ->
        match (Json.str "name" ev, Json.num "dur" ev) with
        | Some n, Some dur ->
          let c, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals n) in
          Hashtbl.replace totals n (c + 1, t +. dur)
        | _ -> ())
      evs);
  let span_totals =
    List.filter_map
      (fun n ->
        Option.map (fun (c, t) -> (n, c, t)) (Hashtbl.find_opt totals n))
      [ "ssta.forward"; "ssta.backward"; "opt.rank" ]
  in
  List.iter
    (fun (n, c, t) ->
      Printf.printf "span %-14s %5d events  %10.1f us total\n%!" n c t)
    span_totals;
  print_newline ();
  if not tracing then begin
    Trace.clear ();
    Trace.set_sink saved_sink
  end;
  {
    ob_circuit = name;
    ob_t_disabled = t_disabled;
    ob_t_discard = t_discard;
    ob_overhead_pct = overhead_pct;
    ob_span_totals = span_totals;
  }

(* ---------- partition-parallel hier engine (part 8) ---------- *)

type hier_row = {
  hr_circuit : string;
  hr_cells : int;
  hr_partitions : int;      (* register-boundary cones *)
  hr_t_flat : float;        (* flat analyze, jobs=1, best of 3 *)
  hr_t_hier1 : float;       (* hier analyze, jobs=1, best of 3 *)
  hr_t_hier : float;        (* hier analyze, jobs=N, best of 3 *)
  hr_opt_t_flat : float;    (* batch optimize, flat engine; nan in quick mode *)
  hr_opt_t_hier1 : float;   (* batch optimize, partition mode, jobs=1 *)
  hr_opt_t_hier : float;    (* batch optimize, partition mode, jobs=N *)
  hr_opt_moves : int;
  hr_opt_yield : float;
}

(* The workload part 6 cannot credit to partitioning: spipe30k's levels
   are wide enough for the level-parallel engine, but its register cut
   also decomposes it into 10 independent cones the hier engine can
   re-time concurrently end to end.  Every run asserts the hier engine
   bit-identical to flat for jobs in {1,2,4} — the cones are a schedule,
   never a model change.  Full mode additionally races the batched
   optimizer flat vs partition mode and requires move-for-move identical
   trajectories: same final assignment, bitwise-equal leakage and yield.
   [--assert-par-speedup] checks that the pool runs cones concurrently:
   hier at jobs=N against hier at jobs=1, for analyze and (full mode)
   partition-mode batch optimize — meaningless on a 1-core host, hence
   opt-in.  Flat over hier is reported, not asserted: with O(1) output
   flags the two engines do the same sequential work per gate. *)
let run_hier ~quick ~jobs ~assert_par_speedup =
  let name = "spipe30k" in
  let cores = Sl_util.Parallel.default_jobs () in
  Printf.printf
    "=== Partition-parallel SSTA over register cones: %s (jobs=%d, %d \
     cores) ===\n%!"
    name jobs cores;
  let s = Setup.of_benchmark name in
  let c = s.Setup.circuit in
  let d = Setup.fresh_design s in
  let partitions =
    match Circuit.partition_at_registers c with
    | Some p -> Array.length p.Circuit.parts
    | None -> failwith "hier: spipe30k did not partition at its register cut"
  in
  let flat = Ssta.analyze ~jobs:1 d s.Setup.model in
  let base =
    (canon_digest flat.Ssta.arrival, canon_digest [| flat.Ssta.circuit_delay |])
  in
  List.iter
    (fun j ->
      match Hier.analyze ~jobs:j d s.Setup.model with
      | None ->
        failwith (Printf.sprintf "hier: %s fell back to flat at jobs=%d" name j)
      | Some res ->
        let dig =
          ( canon_digest res.Ssta.arrival,
            canon_digest [| res.Ssta.circuit_delay |] )
        in
        if dig <> base then
          failwith
            (Printf.sprintf "hier: %s diverged from flat at jobs=%d" name j))
    [ 1; 2; 4 ];
  let best f =
    let t = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  let t_flat = best (fun () -> Ssta.analyze ~jobs:1 d s.Setup.model) in
  let t_hier1 = best (fun () -> Hier.analyze ~jobs:1 d s.Setup.model) in
  let t_hier = best (fun () -> Hier.analyze ~jobs d s.Setup.model) in
  Printf.printf
    "%-10s %6d cells %3d cones   analyze flat %6.3f s  hier jobs=1 %6.3f s  \
     hier jobs=%d %6.3f s  parallel speedup %.2fx  flat/hier %.2fx\n%!"
    name (Circuit.num_cells c) partitions t_flat t_hier1 jobs t_hier
    (t_hier1 /. t_hier) (t_flat /. t_hier);
  (* ten ~3k-gate cones: at jobs=4 anything under 2x over jobs=1 means the
     pool is not actually running cones concurrently; at jobs=2 the ideal
     is 2x so the gate relaxes to the same 1.5x bar part 6 uses *)
  let bar = if jobs >= 4 then 2.0 else 1.5 in
  if assert_par_speedup && t_hier1 /. t_hier < bar then
    failwith
      (Printf.sprintf
         "hier: %s analyze jobs=%d over jobs=1 speedup %.2fx < %.1fx (%d \
          cores)"
         name jobs (t_hier1 /. t_hier) bar cores);
  let opt_t_flat, opt_t_hier1, opt_t_hier, opt_moves, opt_yield =
    if quick then (Float.nan, Float.nan, Float.nan, 0, Float.nan)
    else begin
      let tmax = Setup.tmax s ~factor:1.25 in
      let run partition jobs =
        let d_o = Setup.fresh_design s in
        let t0 = Unix.gettimeofday () in
        let st =
          Batch_opt.optimize
            { (Batch_opt.default_config ~tmax ~eta:0.95) with
              Batch_opt.jobs; partition }
            d_o s.Setup.model
        in
        (Unix.gettimeofday () -. t0, st, d_o)
      in
      let t_f, st_f, d_f = run false 1 in
      let t_h1, st_h1, d_h1 = run true 1 in
      let t_h, st_h, d_h = run true jobs in
      (* partition mode accelerates the sync, never the decisions: every
         run must walk the same trajectory to the same design *)
      let moves (st : Batch_opt.stats) = st.Batch_opt.vth_moves + st.Batch_opt.size_moves in
      let bits = Int64.bits_of_float in
      let leak d_done = Leak_ssta.mean (Leak_ssta.create d_done s.Setup.model) in
      List.iter
        (fun ((st : Batch_opt.stats), (d_o : Design.t)) ->
          if
            moves st_f <> moves st
            || d_f.Design.vth_idx <> d_o.Design.vth_idx
            || d_f.Design.size_idx <> d_o.Design.size_idx
          then failwith "hier: partition-mode optimizer diverged from flat";
          if not (Int64.equal (bits st_f.Batch_opt.final_yield) (bits st.Batch_opt.final_yield))
          then failwith "hier: partition-mode final yield not bit-identical";
          if not (Int64.equal (bits (leak d_f)) (bits (leak d_o))) then
            failwith "hier: partition-mode final leakage not bit-identical")
        [ (st_h1, d_h1); (st_h, d_h) ];
      Printf.printf
        "%-10s batch optimize: flat %7.1f s  partition jobs=1 %7.1f s  \
         jobs=%d %7.1f s  parallel speedup %.2fx  flat/partition %.2fx  %d \
         moves  yield %.4f  (bit-identical)\n%!"
        name t_f t_h1 jobs t_h (t_h1 /. t_h) (t_f /. t_h) (moves st_h)
        st_h.Batch_opt.final_yield;
      if not st_h.Batch_opt.feasible then
        failwith (Printf.sprintf "hier: %s optimize ended infeasible" name);
      if assert_par_speedup && t_h1 /. t_h < 1.5 then
        failwith
          (Printf.sprintf
             "hier: %s batch optimize jobs=%d over jobs=1 speedup %.2fx < \
              1.5x (%d cores)"
             name jobs (t_h1 /. t_h) cores);
      (t_f, t_h1, t_h, moves st_h, st_h.Batch_opt.final_yield)
    end
  in
  print_newline ();
  {
    hr_circuit = name;
    hr_cells = Circuit.num_cells c;
    hr_partitions = partitions;
    hr_t_flat = t_flat;
    hr_t_hier1 = t_hier1;
    hr_t_hier = t_hier;
    hr_opt_t_flat = opt_t_flat;
    hr_opt_t_hier1 = opt_t_hier1;
    hr_opt_t_hier = opt_t_hier;
    hr_opt_moves = opt_moves;
    hr_opt_yield = opt_yield;
  }

(* ---------- bechamel kernels, one per experiment ---------- *)

let kernels () =
  let open Bechamel in
  (* shared inputs built once, outside the timed region *)
  let s_add32 = Setup.of_benchmark "add32" in
  let s_c17 = Setup.of_benchmark "c17" in
  let tmax_add32 = Setup.tmax s_add32 ~factor:1.25 in
  let tmax_c17 = Setup.tmax s_c17 ~factor:1.25 in
  let init_add32 = Setup.fresh_design s_add32 in
  let mc_add32 = Mc.run ~seed:3 ~samples:1000 init_add32 s_add32.Setup.model in
  let stat_kernel ?(sensitivity = Stat_opt.Stat_leak_per_yield) ?(allow_size = true)
      ?(eta = 0.95) s tmax () =
    let d = Setup.fresh_design s in
    let cfg =
      { (Stat_opt.default_config ~tmax ~eta) with Stat_opt.sensitivity; allow_size }
    in
    ignore (Stat_opt.optimize cfg d s.Setup.model)
  in
  [
    Test.make ~name:"T1-model-build"
      (Staged.stage (fun () ->
           ignore (Model.build Spec.default s_add32.Setup.circuit)));
    Test.make ~name:"T2-stat-opt-add32"
      (Staged.stage (stat_kernel s_add32 tmax_add32));
    Test.make ~name:"T3-leak-quantiles"
      (Staged.stage (fun () ->
           let l = Leak_ssta.create init_add32 s_add32.Setup.model in
           ignore (Leak_ssta.quantile l 0.99)));
    Test.make ~name:"T4-mc-500-dies"
      (Staged.stage (fun () ->
           ignore (Mc.run ~seed:5 ~samples:500 init_add32 s_add32.Setup.model)));
    Test.make ~name:"T5-det-opt-add32"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_add32 in
           ignore
             (Det_opt.optimize (Det_opt.default_config ~tmax:tmax_add32) d
                s_add32.Setup.spec)));
    Test.make ~name:"F1-histogram"
      (Staged.stage (fun () ->
           ignore (Sl_util.Histogram.build ~bins:30 mc_add32.Mc.leak)));
    Test.make ~name:"F2-det-opt-c17"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_c17 in
           ignore
             (Det_opt.optimize (Det_opt.default_config ~tmax:tmax_c17) d
                s_c17.Setup.spec)));
    Test.make ~name:"F3-stat-opt-eta90"
      (Staged.stage (stat_kernel ~eta:0.90 s_c17 tmax_c17));
    Test.make ~name:"F4-ssta-backward"
      (Staged.stage (fun () ->
           let res = Ssta.analyze init_add32 s_add32.Setup.model in
           ignore (Ssta.backward s_add32.Setup.circuit res)));
    Test.make ~name:"F5-scaled-model-build"
      (Staged.stage (fun () ->
           ignore (Model.build (Spec.scaled 1.5) s_add32.Setup.circuit)));
    Test.make ~name:"F6-ssta-analyze"
      (Staged.stage (fun () -> ignore (Ssta.analyze init_add32 s_add32.Setup.model)));
    Test.make ~name:"A1-no-spatial-model"
      (Staged.stage (fun () ->
           ignore (Model.build Spec.no_spatial s_add32.Setup.circuit)));
    Test.make ~name:"A2-stat-opt-vth-only"
      (Staged.stage (stat_kernel ~allow_size:false s_c17 tmax_c17));
    Test.make ~name:"A3-nominal-sensitivity"
      (Staged.stage (stat_kernel ~sensitivity:Stat_opt.Nominal_leak_per_yield s_c17 tmax_c17));
    Test.make ~name:"A4-anneal-500-iters"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_c17 in
           let cfg =
             { (Anneal.default_config ~tmax:tmax_c17 ~eta:0.95) with Anneal.iterations = 500 }
           in
           ignore (Anneal.optimize cfg d s_c17.Setup.model)));
    Test.make ~name:"A5-ivc-add32"
      (Staged.stage (fun () ->
           ignore (Sl_leakage.State_leak.Ivc.optimize ~seed:3 ~restarts:1 init_add32)));
    Test.make ~name:"A6-path-ssta-k50"
      (Staged.stage (fun () ->
           ignore (Sl_ssta.Path_ssta.analyze init_add32 s_add32.Setup.model ~k:50)));
    Test.make ~name:"A7-abb-100-dies"
      (Staged.stage (fun () ->
           let cfg = Sl_mc.Abb.default_config ~tmax:tmax_add32 in
           ignore (Sl_mc.Abb.tune ~seed:5 ~samples:100 cfg init_add32 s_add32.Setup.model)));
    Test.make ~name:"A8-quadtree-model-build"
      (Staged.stage (fun () ->
           ignore (Model.build (Spec.quadtree ()) s_add32.Setup.circuit)));
    Test.make ~name:"A9-hot-library-leakage"
      (Staged.stage (fun () ->
           let tech = { Sl_tech.Tech.default with Sl_tech.Tech.temp_k = 400.0 } in
           let lib = Sl_tech.Cell_lib.create tech in
           let d = Design.create ~size_idx:2 lib s_add32.Setup.circuit in
           ignore (Leak_ssta.create d s_add32.Setup.model)));
    Test.make ~name:"F7-criticality-profile"
      (Staged.stage (fun () ->
           let res = Ssta.analyze init_add32 s_add32.Setup.model in
           let bwd = Ssta.backward s_add32.Setup.circuit res in
           let tmax = tmax_add32 in
           for id = 0 to Sl_netlist.Circuit.num_gates s_add32.Setup.circuit - 1 do
             ignore (Ssta.node_criticality res ~backward:bwd ~tmax id)
           done));
    Test.make ~name:"A13-det-corner-k1"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_c17 in
           let cfg = { (Det_opt.default_config ~tmax:tmax_c17) with Det_opt.corner_k = 1.0 } in
           ignore (Det_opt.optimize cfg d s_c17.Setup.spec)));
    Test.make ~name:"A14-lr-opt-add32"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_add32 in
           ignore
             (Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax:tmax_add32) d
                s_add32.Setup.spec)));
    Test.make ~name:"A15-seq-yield-c17"
      (Staged.stage (fun () ->
           let d = Setup.fresh_design s_c17 in
           ignore
             (Seq.estimate ~jobs:1 ~method_:Seq.Is_cv ~batch_chunks:1
                ~max_samples:512 ~target_halfwidth:0.0 ~seed:97 ~tmax:tmax_c17 d
                s_c17.Setup.model)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "=== Bechamel micro-benchmarks (one kernel per experiment) ===\n%!";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:true () in
  let tests = Test.make_grouped ~name:"statleak" (kernels ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let timings =
    List.map
      (fun (name, r) ->
        let time_ns =
          match Analyze.OLS.estimates r with Some (t :: _) -> t | _ -> Float.nan
        in
        Printf.printf "%-32s %12.0f ns/run  (r2=%s)\n" name time_ns
          (match Analyze.OLS.r_square r with
          | Some r2 -> Printf.sprintf "%.3f" r2
          | None -> "-");
        (name, time_ns))
      rows
  in
  print_newline ();
  timings

(* ---------- machine-readable results ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* the revision the numbers were measured at, so a committed
   BENCH_results.json is traceable; "unknown" outside a git checkout *)
let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Sys_error _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown")

let write_json path ~quick ~jobs ~times ~(sp : speedup) ~(yc : yield_check)
    ~(osp : opt_speedup list) ~(bsp : batch_speedup list)
    ~(scale : scale_row list) ~(hier : hier_row) ~(obs : obs_row) ~kernels =
  let cores = Sl_util.Parallel.default_jobs () in
  (* speedup numbers measured with fewer than 2 cores (or 1 worker) say
     nothing about the parallel engines — annotate instead of asserting *)
  let meaningful = cores > 1 && jobs > 1 in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"statleak-bench/7\",\n";
  add "  \"schema_version\": 7,\n";
  add "  \"git_rev\": \"%s\",\n" (json_escape (git_rev ()));
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"cores\": %d,\n" cores;
  add "  \"jobs_effective\": %d,\n" (Stdlib.min jobs cores);
  add "  \"experiments\": [\n";
  List.iteri
    (fun i (group, secs) ->
      add "    {\"group\": \"%s\", \"seconds\": %s}%s\n" (json_escape group)
        (json_float secs)
        (if i = List.length times - 1 then "" else ","))
    times;
  add "  ],\n";
  add "  \"mc_speedup\": {\"circuit\": \"%s\", \"seconds_jobs1\": %s, \
       \"seconds_parallel\": %s, \"parallel_jobs\": %d, \"speedup\": %s, \
       \"meaningful\": %b},\n"
    (json_escape sp.circuit) (json_float sp.t_seq) (json_float sp.t_par) sp.par_jobs
    (json_float (sp.t_seq /. sp.t_par))
    meaningful;
  add "  \"yield_checks\": {\"circuit\": \"%s\", \"eta\": %s, \"halfwidth\": %s, \
       \"naive_dies\": %d, \"iscv_dies\": %d, \"dies_savings\": %s, \
       \"iscv_yield\": %s, \"iscv_stderr\": %s, \"jobs_bit_identical\": true},\n"
    (json_escape yc.yc_circuit) (json_float yc.eta) (json_float yc.halfwidth)
    yc.naive_dies yc.iscv_dies
    (json_float (float_of_int yc.naive_dies /. float_of_int yc.iscv_dies))
    (json_float yc.iscv_yield) (json_float yc.iscv_stderr);
  (* schema v6: the full-refresh flow is counted (refreshes x one
     from-scratch refresh), with the propagation counts the gate reads *)
  add "  \"opt_speedup\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"circuit\": \"%s\", \"cells\": %d, \"seconds_full_counted\": %s, \
         \"seconds_incremental\": %s, \"speedup\": %s, \"props_full\": %d, \
         \"props_incremental\": %d, \"props_ratio\": %s, \"updates\": %d, \
         \"propagated_gates\": %d, \"mean_cone\": %s, \"max_cone\": %d}%s\n"
        (json_escape r.os_circuit) r.os_cells (json_float r.os_t_full)
        (json_float r.os_t_inc)
        (json_float (r.os_t_full /. r.os_t_inc))
        r.os_props_full r.os_props_inc
        (json_float (float_of_int r.os_props_full /. float_of_int r.os_props_inc))
        r.os_updates r.os_propagated (json_float r.os_mean_cone) r.os_max_cone
        (if i = List.length osp - 1 then "" else ","))
    osp;
  add "  ],\n";
  add "  \"batch_opt\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"circuit\": \"%s\", \"cells\": %d, \"stat_props\": %d, \
         \"stat_props_full_equiv\": %d, \"batch_props\": %d, \
         \"ratio_incremental\": %s, \"ratio_full\": %s, \
         \"leak_delta_pct\": %s, \"batch_props_per_move\": %s, \
         \"seconds_stat\": %s, \"seconds_batch\": %s}%s\n"
        (json_escape r.bs_circuit) r.bs_cells r.bs_stat_props
        r.bs_stat_props_full r.bs_batch_props
        (json_float r.bs_ratio_incr) (json_float r.bs_ratio_full)
        (json_float r.bs_leak_delta_pct) (json_float r.bs_batch_ppm)
        (json_float r.bs_t_stat) (json_float r.bs_t_batch)
        (if i = List.length bsp - 1 then "" else ","))
    bsp;
  add "  ],\n";
  add "  \"scale\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"circuit\": \"%s\", \"cells\": %d, \"levels\": %d, \
         \"widest_level\": %d, \"analyze_seconds_jobs1\": %s, \
         \"analyze_seconds_parallel\": %s, \"analyze_speedup\": %s, \
         \"meaningful\": %b, \"par_levels\": %d, \"seq_levels\": %d, \
         \"jobs_bit_identical\": true, \"batch_opt_seconds\": %s, \
         \"batch_opt_feasible\": %b, \"batch_opt_moves\": %d}%s\n"
        (json_escape r.sc_circuit) r.sc_cells r.sc_levels r.sc_widest
        (json_float r.sc_t_seq) (json_float r.sc_t_par)
        (json_float (r.sc_t_seq /. r.sc_t_par))
        meaningful r.sc_par_levels r.sc_seq_levels
        (json_float r.sc_opt_seconds) r.sc_opt_feasible r.sc_opt_moves
        (if i = List.length scale - 1 then "" else ","))
    scale;
  add "  ],\n";
  (* schema v5: the partition-parallel hier engine race — flat vs
     register-cone analyze, and (full mode) flat vs partition-mode batch
     optimize, both bit-identity-asserted before any timing is kept.
     Schema v7: the asserted ratio is hier jobs=N over hier jobs=1
     ([*_par_speedup]); flat over hier is reported ([*_flat_over_hier]) *)
  add
    "  \"hier\": {\"circuit\": \"%s\", \"cells\": %d, \"partitions\": %d, \
     \"analyze_seconds_flat\": %s, \"analyze_seconds_hier_jobs1\": %s, \
     \"analyze_seconds_hier\": %s, \"analyze_par_speedup\": %s, \
     \"analyze_flat_over_hier\": %s, \"meaningful\": %b, \
     \"jobs_bit_identical\": true, \"optimize_seconds_flat\": %s, \
     \"optimize_seconds_hier_jobs1\": %s, \"optimize_seconds_hier\": %s, \
     \"optimize_par_speedup\": %s, \"optimize_flat_over_hier\": %s, \
     \"optimize_moves\": %d, \"optimize_yield\": %s, \
     \"optimize_bit_identical\": %b},\n"
    (json_escape hier.hr_circuit) hier.hr_cells hier.hr_partitions
    (json_float hier.hr_t_flat) (json_float hier.hr_t_hier1)
    (json_float hier.hr_t_hier)
    (json_float (hier.hr_t_hier1 /. hier.hr_t_hier))
    (json_float (hier.hr_t_flat /. hier.hr_t_hier))
    meaningful
    (json_float hier.hr_opt_t_flat)
    (json_float hier.hr_opt_t_hier1)
    (json_float hier.hr_opt_t_hier)
    (json_float (hier.hr_opt_t_hier1 /. hier.hr_opt_t_hier))
    (json_float (hier.hr_opt_t_flat /. hier.hr_opt_t_hier))
    hier.hr_opt_moves
    (json_float hier.hr_opt_yield)
    (not quick);
  (* schema v4: the observability section — the asserted overhead bound,
     per-span totals, and a snapshot of the whole metrics registry
     (propagation counters, level-batch tallies, MC throughput, ...) *)
  add "  \"obs\": {\n";
  add
    "    \"overhead\": {\"circuit\": \"%s\", \"seconds_disabled\": %s, \
     \"seconds_discard\": %s, \"overhead_pct\": %s, \"asserted_max_pct\": 2.0},\n"
    (json_escape obs.ob_circuit)
    (json_float obs.ob_t_disabled)
    (json_float obs.ob_t_discard)
    (json_float obs.ob_overhead_pct);
  add "    \"span_totals_us\": [\n";
  List.iteri
    (fun i (n, c, t) ->
      add "      {\"name\": \"%s\", \"events\": %d, \"total_us\": %s}%s\n"
        (json_escape n) c (json_float t)
        (if i = List.length obs.ob_span_totals - 1 then "" else ","))
    obs.ob_span_totals;
  add "    ],\n";
  add "    \"metrics\": [\n";
  let samples = Metrics.snapshot () in
  List.iteri
    (fun i (s : Metrics.sample) ->
      let labels =
        String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             s.Metrics.labels)
      in
      add "      {\"name\": \"%s\", \"labels\": {%s}, \"value\": %s}%s\n"
        (json_escape s.Metrics.name) labels
        (json_float s.Metrics.value)
        (if i = List.length samples - 1 then "" else ","))
    samples;
  add "    ]\n";
  add "  },\n";
  add "  \"bechamel_ns_per_run\": {\n";
  (match kernels with
  | None -> ()
  | Some ks ->
    List.iteri
      (fun i (name, ns) ->
        add "    \"%s\": %s%s\n" (json_escape name) (json_float ns)
          (if i = List.length ks - 1 then "" else ","))
      ks);
  add "  }\n";
  add "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "results written to %s\n%!" path

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let assert_par_speedup = List.mem "--assert-par-speedup" args in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> int_of_string v
      | _ :: rest -> find rest
      | [] -> Sl_util.Parallel.default_jobs ()
    in
    find args
  in
  let json_path =
    let rec find = function
      | "--json" :: v :: _ -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let trace_path =
    let rec find = function
      | "--trace" :: v :: _ -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if trace_path <> None then Trace.set_sink Trace.Memory;
  let times = print_experiments ~quick ~jobs in
  let sp = run_speedup ~quick ~jobs in
  let yc = run_yield_checks ~quick ~jobs in
  let osp = run_opt_speedup ~quick in
  let bsp = run_batch_speedup ~quick in
  let scale = run_scale ~quick ~jobs ~assert_par_speedup in
  let hier = run_hier ~quick ~jobs ~assert_par_speedup in
  let obs = run_obs_overhead ~quick ~tracing:(trace_path <> None) in
  let kernels = if no_bechamel then None else Some (run_bechamel ()) in
  (match trace_path with
  | None -> ()
  | Some path ->
    let n = Trace.write path in
    Printf.printf "trace: %d events written to %s\n%!" n path);
  match json_path with
  | None -> ()
  | Some path ->
    write_json path ~quick ~jobs ~times ~sp ~yc ~osp ~bsp ~scale ~hier ~obs
      ~kernels
