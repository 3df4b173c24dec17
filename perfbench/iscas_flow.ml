(* iscas-flow: what `statleak optimize` runs at its defaults, on the two
   ISCAS-85-sized inputs the paper's tables use — a seeded ~2000-gate
   random DAG and the 16-bit array multiplier (the c6288 structure).

   Per circuit and iteration: an initial Evaluate.design with MC dies,
   the stat, batch and det optimizers each from a fresh all-low-Vth
   design, then a final MC evaluation of the stat-optimized design and
   an IS+CV yield estimate of it (what `statleak yield` runs).  The
   det optimizer and MC verification take most of the time; the
   statistical optimizers exercise ranking, small-cone incremental syncs
   and leakage updates; full-sweep SSTA does little. *)

open Harness
module Setup = Statleak.Setup
module Evaluate = Statleak.Evaluate
module Generators = Sl_netlist.Generators
module Benchmarks = Sl_netlist.Benchmarks
module Design = Sl_tech.Design
module Leak_ssta = Sl_leakage.Leak_ssta
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Det_opt = Sl_opt.Det_opt
module Yield_seq = Sl_yield.Seq
module Estimate = Sl_yield.Estimate

(* CLI defaults of `statleak optimize`: Tmax = 1.25 D0, eta = 0.95, MC
   seed 1; the dies follow the paper-table setting of 2000. *)
let factor = 1.25
let eta = 0.95
let mc_samples = 2000
let mc_seed = 1

(* `statleak yield` defaults: IS+CV to a 0.005 CI half-width. *)
let yield_halfwidth = 0.005

let circuits seed =
  [
    (fun () ->
      Generators.random_dag_named ~name:(Printf.sprintf "dag%d" seed) ~seed ~gates:2000
        ~inputs:120 ~outputs:64);
    (fun () -> Option.get (Benchmarks.by_name "mult16"));
  ]

type totals = {
  mutable init_leak : float;
  mutable stat_leak : float;
  mutable batch_leak : float;
  mutable det_leak : float;
  mutable yield_gap : float;
  mutable batch_props : float;
  mutable batch_moves : float;
  mutable yield_dies : float;
  mutable yield_ess : float;
}

let flow_circuit t (s : Setup.t) =
  let tmax = Setup.tmax s ~factor in
  let name = s.Setup.name in
  let evaluate d =
    timed "mc.evaluate_design" (fun () ->
        Evaluate.design ~mc_samples ~seed:mc_seed ~jobs s ~tmax d)
  in
  let init = evaluate (Setup.fresh_design s) in
  check (name ^ " initial design meets eta") (init.Evaluate.yield_ssta >= eta);
  let d_stat = Setup.fresh_design s in
  let st =
    timed "opt.stat_optimize" (fun () ->
        Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta) d_stat s.Setup.model)
  in
  check (name ^ " stat optimize feasible") st.Stat_opt.feasible;
  let d_batch = Setup.fresh_design s in
  let bt =
    timed "opt.batch_optimize" (fun () ->
        Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta) d_batch s.Setup.model)
  in
  check (name ^ " batch optimize feasible") bt.Batch_opt.feasible;
  let d_det = Setup.fresh_design s in
  let dt =
    timed "opt.det_optimize" (fun () ->
        Det_opt.optimize (Det_opt.default_config ~tmax) d_det s.Setup.spec)
  in
  check (name ^ " det optimize feasible") dt.Det_opt.feasible;
  let leak d = Leak_ssta.mean (timed "leakage.create" (fun () -> Leak_ssta.create d s.Setup.model)) in
  let batch_leak = leak d_batch and det_leak = leak d_det in
  let final = evaluate d_stat in
  let yield_mc = Option.value ~default:Float.nan final.Evaluate.yield_mc in
  let ye =
    timed "yield.estimate" (fun () ->
        Yield_seq.estimate ~jobs ~target_halfwidth:yield_halfwidth ~seed:mc_seed ~tmax d_stat
          s.Setup.model)
  in
  check (name ^ " IS+CV yield estimate inside its CI")
    (ye.Estimate.ci_lo <= ye.Estimate.value && ye.Estimate.value <= ye.Estimate.ci_hi);
  check_repeat (name ^ " evaluations and optimized designs")
    (String.concat ","
       [
         Int64.to_string
           (digest_floats
              [
                init.Evaluate.leak_mean; init.Evaluate.yield_ssta;
                Option.value ~default:Float.nan init.Evaluate.yield_mc;
                final.Evaluate.leak_mean; final.Evaluate.yield_ssta; yield_mc; batch_leak; det_leak;
                ye.Estimate.value; ye.Estimate.stderr;
              ]);
         Design.assignment_digest d_stat;
         Design.assignment_digest d_batch;
         Design.assignment_digest d_det;
       ]);
  t.init_leak <- t.init_leak +. init.Evaluate.leak_mean;
  t.stat_leak <- t.stat_leak +. final.Evaluate.leak_mean;
  t.batch_leak <- t.batch_leak +. batch_leak;
  t.det_leak <- t.det_leak +. det_leak;
  t.yield_gap <- Float.max t.yield_gap (Float.abs (final.Evaluate.yield_ssta -. yield_mc));
  t.batch_props <- t.batch_props +. float_of_int bt.Batch_opt.propagated_gates;
  t.batch_moves <- t.batch_moves +. float_of_int (bt.Batch_opt.vth_moves + bt.Batch_opt.size_moves);
  t.yield_dies <- t.yield_dies +. float_of_int ye.Estimate.samples_used;
  t.yield_ess <- t.yield_ess +. ye.Estimate.ess

let run ~seed ~seconds ~trace =
  let last = ref None in
  let setup () =
    List.map (fun gen -> make_setup (timed "netlist.build" gen)) (circuits seed)
  in
  let flow setups _ =
    let before = registry_counts () in
    let t =
      { init_leak = 0.0; stat_leak = 0.0; batch_leak = 0.0; det_leak = 0.0; yield_gap = 0.0;
        batch_props = 0.0; batch_moves = 0.0; yield_dies = 0.0; yield_ess = 0.0 }
    in
    List.iter (flow_circuit t) setups;
    last := Some t;
    counts_delta before (registry_counts ())
  in
  let r = measure ~trace ~seconds ~setup_reps:8 ~setup ~flow () in
  let t = Option.get !last in
  let mc_s = per_iter r "mc.evaluate_design" in
  let headline =
    [
      metric "stat_optimize_s" "s" (per_iter r "opt.stat_optimize");
      metric "batch_optimize_s" "s" (per_iter r "opt.batch_optimize");
      metric "det_optimize_s" "s" (per_iter r "opt.det_optimize");
      metric "mc_verify_s" "s" mc_s;
      metric "yield_estimate_s" "s" (per_iter r "yield.estimate");
      metric "stat_leak_reduction_pct" "%" (pct (t.init_leak -. t.stat_leak) t.init_leak);
      metric "batch_leak_reduction_pct" "%" (pct (t.init_leak -. t.batch_leak) t.init_leak);
      metric "stat_vs_det_leak_pct" "%" (pct (t.det_leak -. t.stat_leak) t.det_leak);
      metric "ssta_mc_yield_gap" "abs" t.yield_gap;
    ]
  in
  let extra =
    [
      ("opt.props_per_move", ratio t.batch_props t.batch_moves);
      (* the registry's die count includes the yield estimator's dies *)
      ("mc.dies_per_s", ratio (count r "mc.dies" -. t.yield_dies) mc_s);
      ("yield.dies_used", t.yield_dies);
      ("yield.ess", t.yield_ess);
    ]
  in
  (r, headline, extra)
