(* Slack-band batched optimizer: band rollback bit-identity, bisection
   behaviour, and regression pins against the greedy Stat_opt.

   The load-bearing property is the first one: a rolled-back band must
   leave the incremental engine bit-identical to a from-scratch analysis
   of the restored design — an audited run ([Audit.run]) checks exactly
   that after every pass, through every commit, rollback and bisection
   the run performs. *)

module Circuit = Sl_netlist.Circuit
module Benchmarks = Sl_netlist.Benchmarks
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Leak_ssta = Sl_leakage.Leak_ssta
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Setup = Statleak.Setup

let setup name =
  let c = Option.get (Benchmarks.by_name name) in
  let d = Design.create ~size_idx:2 (Cell_lib.default ()) c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  (d, model, tmax)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------- band rollback / bisection bit-identity ---------- *)

(* Every pass boundary audits the engine against a from-scratch analysis
   (bit-for-bit), so any band commit or checkpoint rollback that left a
   stale canonical form anywhere fails the run. *)
let test_audited_run name () =
  let d, model, tmax = setup name in
  let st = Audit.run Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d model in
  Alcotest.(check bool) "feasible" true st.Batch_opt.feasible;
  (* the exit yield must bit-match an independent from-scratch SSTA of
     the mutated design *)
  let y = Ssta.timing_yield (Ssta.analyze d model) ~tmax in
  Alcotest.(check bool)
    (Printf.sprintf "exit yield %.17g bit-matches fresh SSTA" y)
    true
    (feq y st.Batch_opt.final_yield)

(* The bisection path: on c17 at the default config, bands overspend
   the real headroom (the pins record 9 band rollbacks and 7 bisections),
   so they roll back and retry halved.  The audit checks that
   bit-identity survives the failure path, not just clean commits, and
   the run must still exit feasible. *)
let test_forced_bisection () =
  let s = Setup.of_benchmark "c17" in
  let tmax = Setup.tmax s ~factor:1.25 in
  let st =
    Audit.run Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95)
      (Setup.fresh_design s) s.Setup.model
  in
  Alcotest.(check bool) "feasible" true st.Batch_opt.feasible;
  Alcotest.(check bool) "yield >= eta" true (st.Batch_opt.final_yield >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "bands rolled back (%d)" st.Batch_opt.bands_rolled_back)
    true
    (st.Batch_opt.bands_rolled_back > 0);
  Alcotest.(check bool)
    (Printf.sprintf "bisections taken (%d)" st.Batch_opt.bisections)
    true
    (st.Batch_opt.bisections > 0)

(* ---------- regression pins vs the greedy optimizer ---------- *)

(* Batching is a throughput move, not a quality move: on every benchmark
   it must match Stat_opt's feasibility, stay within 1% of its mean
   leakage, and (beyond trivial sizes) pay fewer timing propagations. *)
let test_vs_stat name () =
  let d_s, model, tmax = setup name in
  let st_s = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d_s model in
  let leak_s = Leak_ssta.mean (Leak_ssta.create d_s model) in
  let d_b, model_b, _ = setup name in
  let st_b = Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d_b model_b in
  let leak_b = Leak_ssta.mean (Leak_ssta.create d_b model_b) in
  Alcotest.(check bool) "feasibility parity" st_s.Stat_opt.feasible st_b.Batch_opt.feasible;
  Alcotest.(check bool)
    (Printf.sprintf "leak %.4g within 1%% of greedy %.4g" leak_b leak_s)
    true
    (leak_b <= 1.01 *. leak_s);
  if Circuit.num_gates d_b.Design.circuit > 100 then
    Alcotest.(check bool)
      (Printf.sprintf "fewer propagations (%d < %d)" st_b.Batch_opt.propagated_gates
         st_s.Stat_opt.propagated_gates)
      true
      (st_b.Batch_opt.propagated_gates < st_s.Stat_opt.propagated_gates)

(* ---------- exact trajectory pins ----------

   The banded trajectory, pinned move for move: the set-up of the greedy
   optimizer's seed pins (test_incremental.ml) — tmax = 1.25·D0, eta =
   0.95, default config — with E[leak] from a fresh Leak_ssta of the
   final design and the final yield compared as IEEE bits. *)

type batch_pin = {
  b_name : string;
  b_vth : int;
  b_size : int;
  b_trials : int;
  b_passes : int;
  b_committed : int;
  b_tried : int;
  b_rolled_back : int;
  b_bisections : int;
  b_rollbacks : int;
  b_yield_bits : string;
  b_eleak : float;
  b_digest : string;
  b_props : int;
}

let batch_pins =
  [
    {
      b_name = "c17";
      b_vth = 6;
      b_size = 11;
      b_trials = 62;
      b_passes = 10;
      b_committed = 6;
      b_tried = 15;
      b_rolled_back = 9;
      b_bisections = 7;
      b_rollbacks = 39;
      b_yield_bits = "3feff25f640bd151";
      b_eleak = 28.398471389682072;
      b_digest = "v[0,6]/s[2,2,1,1,0,0,0]";
      b_props = 130;
    };
    {
      b_name = "add32";
      b_vth = 160;
      b_size = 282;
      b_trials = 708;
      b_passes = 7;
      b_committed = 7;
      b_tried = 8;
      b_rolled_back = 1;
      b_bisections = 1;
      b_rollbacks = 128;
      b_yield_bits = "3fee810eefb22b03";
      b_eleak = 695.76254904721111;
      b_digest = "v[0,160]/s[120,40,0,0,0,0,0]";
      b_props = 1746;
    };
    {
      b_name = "mult8";
      b_vth = 320;
      b_size = 570;
      b_trials = 2234;
      b_passes = 17;
      b_committed = 18;
      b_tried = 19;
      b_rolled_back = 1;
      b_bisections = 1;
      b_rollbacks = 192;
      b_yield_bits = "3fee9532c8ae3478";
      b_eleak = 1464.6511619228534;
      b_digest = "v[0,320]/s[252,65,3,0,0,0,0]";
      b_props = 7093;
    };
  ]

let test_batch_pins () =
  List.iter
    (fun p ->
      let s = Setup.of_benchmark p.b_name in
      let tmax = Setup.tmax s ~factor:1.25 in
      let d = Setup.fresh_design s in
      let st = Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d s.Setup.model in
      let tag what = Printf.sprintf "%s: %s" p.b_name what in
      let int what expected actual = Alcotest.(check int) (tag what) expected actual in
      int "vth_moves" p.b_vth st.Batch_opt.vth_moves;
      int "size_moves" p.b_size st.Batch_opt.size_moves;
      int "trials" p.b_trials st.Batch_opt.trials;
      int "passes" p.b_passes st.Batch_opt.passes;
      int "bands committed" p.b_committed st.Batch_opt.bands_committed;
      int "bands tried" p.b_tried st.Batch_opt.bands_tried;
      int "bands rolled back" p.b_rolled_back st.Batch_opt.bands_rolled_back;
      int "bisections" p.b_bisections st.Batch_opt.bisections;
      int "rollbacks" p.b_rollbacks st.Batch_opt.rollbacks;
      int "propagated gates" p.b_props st.Batch_opt.propagated_gates;
      Alcotest.(check string) (tag "final yield bits") p.b_yield_bits
        (Printf.sprintf "%016Lx" (Int64.bits_of_float st.Batch_opt.final_yield));
      let eleak = Leak_ssta.mean (Leak_ssta.create d s.Setup.model) in
      Alcotest.(check string) (tag "E[leak]")
        (Printf.sprintf "%.17g" p.b_eleak) (Printf.sprintf "%.17g" eleak);
      Alcotest.(check string) (tag "digest") p.b_digest (Design.assignment_digest d))
    batch_pins

(* ---------- determinism and knobs ---------- *)

let test_deterministic () =
  let run () =
    let d, model, tmax = setup "add32" in
    let st = Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d model in
    (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx, st)
  in
  let v1, s1, st1 = run () in
  let v2, s2, st2 = run () in
  Alcotest.(check (array int)) "vth assignment" v1 v2;
  Alcotest.(check (array int)) "size assignment" s1 s2;
  let untimed st =
    { st with Batch_opt.time_refresh = 0.0; time_candidates = 0.0; time_total = 0.0 }
  in
  Alcotest.(check bool) "identical stats" true (untimed st1 = untimed st2)

let test_knobs () =
  let d, model, tmax = setup "add32" in
  let cfg =
    { (Batch_opt.default_config ~tmax ~eta:0.95) with Batch_opt.allow_size = false }
  in
  let sizes_before = Array.copy d.Design.size_idx in
  let st = Batch_opt.optimize cfg d model in
  Alcotest.(check int) "no size moves" 0 st.Batch_opt.size_moves;
  Alcotest.(check (array int)) "sizes untouched" sizes_before d.Design.size_idx;
  let d2, model2, tmax2 = setup "add32" in
  let cfg2 =
    { (Batch_opt.default_config ~tmax:tmax2 ~eta:0.95) with Batch_opt.allow_vth = false }
  in
  let vth_before = Array.copy d2.Design.vth_idx in
  let st2 = Batch_opt.optimize cfg2 d2 model2 in
  Alcotest.(check int) "no vth moves" 0 st2.Batch_opt.vth_moves;
  Alcotest.(check (array int)) "vth untouched" vth_before d2.Design.vth_idx

(* ---------- level-parallel engine: trajectory identity ---------- *)

(* A circuit wide enough (256-gate levels > the 192-gate threshold) that
   jobs=2 really takes the domain path inside the incremental engine —
   then the whole optimization trajectory (assignment, moves, yield bits)
   must be unchanged, with the audit re-checking the engine throughout. *)
let test_jobs_trajectory_identity () =
  let c =
    Sl_netlist.Bench_format.parse_string ~sequential:`Cut ~name:"spipe-test"
      (Sl_netlist.Generators.seq_pipeline_bench ~stages:2 ~width:256 ~layers:3)
  in
  let model = Model.build Spec.default c in
  let run jobs =
    let d = Design.create ~size_idx:2 (Cell_lib.default ()) c in
    let res0 = Ssta.analyze d model in
    let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
    let st =
      Audit.run Batch_opt.optimize { (Batch_opt.default_config ~tmax ~eta:0.95) with jobs } d
        model
    in
    (Design.assignment_digest d, st)
  in
  let dig1, st1 = run 1 in
  let dig2, st2 = run 2 in
  Alcotest.(check string) "same assignment" dig1 dig2;
  Alcotest.(check int) "same vth moves" st1.Batch_opt.vth_moves st2.Batch_opt.vth_moves;
  Alcotest.(check int) "same size moves" st1.Batch_opt.size_moves st2.Batch_opt.size_moves;
  Alcotest.(check int) "same syncs" st1.Batch_opt.syncs st2.Batch_opt.syncs;
  Alcotest.(check bool) "same yield bits" true
    (feq st1.Batch_opt.final_yield st2.Batch_opt.final_yield);
  (* prove the parallel path actually ran, and that jobs=1 never does *)
  Alcotest.(check int) "jobs=1 inline only" 0 st1.Batch_opt.par_levels;
  Alcotest.(check bool) "jobs=2 used domains" true (st2.Batch_opt.par_levels > 0);
  Alcotest.(check bool) "widest level cleared threshold" true
    (st2.Batch_opt.max_level_width >= 256)

let suite =
  [
    ( "batch_opt",
      [
        Alcotest.test_case "audited run, bit-exact engine (c17)" `Quick
          (test_audited_run "c17");
        Alcotest.test_case "audited run, bit-exact engine (add32)" `Quick
          (test_audited_run "add32");
        Alcotest.test_case "audited run, bit-exact engine (mult8)" `Slow
          (test_audited_run "mult8");
        Alcotest.test_case "forced bisection stays bit-exact and feasible" `Quick
          test_forced_bisection;
        Alcotest.test_case "vs stat_opt: parity and <=1% leak (c17)" `Quick
          (test_vs_stat "c17");
        Alcotest.test_case "vs stat_opt: parity and <=1% leak (add32)" `Quick
          (test_vs_stat "add32");
        Alcotest.test_case "vs stat_opt: parity and <=1% leak (mult8)" `Slow
          (test_vs_stat "mult8");
        Alcotest.test_case "trajectory pins (c17, add32, mult8)" `Slow
          test_batch_pins;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "knob gating" `Quick test_knobs;
        Alcotest.test_case "jobs=2 trajectory identity (wide levels)" `Slow
          test_jobs_trajectory_identity;
      ] );
  ]
