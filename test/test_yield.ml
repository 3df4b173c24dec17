module Mc = Sl_mc.Mc
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Benchmarks = Sl_netlist.Benchmarks
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Stats = Sl_util.Stats
module Estimate = Sl_yield.Estimate
module Is = Sl_yield.Is
module Cv = Sl_yield.Cv
module Seq = Sl_yield.Seq

let setup name =
  let c =
    match Benchmarks.by_name name with
    | Some c -> c
    | None -> Alcotest.failf "unknown benchmark %s" name
  in
  let d = Design.create (Cell_lib.default ()) c in
  let m = Model.build Spec.default c in
  (d, m)

(* tmax at a given surrogate yield so tests probe a realistic tail *)
let tmax_at (d, m) p = Ssta.tmax_for_yield (Ssta.analyze d m) ~p

let test_run_dies_matches_run () =
  (* with no hook and no shift, run_dies is the naive engine bit for bit *)
  let d, m = setup "c17" in
  let r = Mc.run ~seed:5 ~samples:300 d m in
  let dies = Mc.run_dies ~seed:5 ~first:0 ~count:300 d m in
  Alcotest.(check (array (float 0.0)))
    "same delays" r.Mc.delay
    (Array.map (fun (x : Mc.die) -> x.Mc.delay) dies);
  Alcotest.(check (array (float 0.0)))
    "same leaks" r.Mc.leak
    (Array.map (fun (x : Mc.die) -> x.Mc.leak) dies)

let test_run_dies_rejects_misaligned () =
  let d, m = setup "c17" in
  (match Mc.run_dies ~seed:1 ~first:100 ~count:10 d m with
  | _ -> Alcotest.fail "misaligned first accepted"
  | exception Invalid_argument _ -> ());
  match Mc.run_dies ~seed:1 ~first:0 ~count:0 d m with
  | _ -> Alcotest.fail "count 0 accepted"
  | exception Invalid_argument _ -> ()

let test_shift_places_boundary_at_mean () =
  (* evaluating the surrogate at the shifted PC mean must land on tmax *)
  let d, m = setup "add32" in
  let form = (Ssta.analyze d m).Ssta.circuit_delay in
  let tmax = tmax_at (d, m) 0.99 in
  let mu = Is.shift form ~tmax in
  let lin = ref form.Canonical.mean in
  Array.iteri (fun k c -> lin := !lin +. (c *. mu.(k))) form.Canonical.coeffs;
  Alcotest.(check (float 0.5)) "surrogate mean at boundary" tmax !lin

let test_null_shift_weights_are_one () =
  let d, m = setup "c17" in
  let zero = Array.make (Model.num_pcs m) 0.0 in
  let dies = Mc.run_dies ~seed:3 ~first:0 ~count:256 d m in
  Array.iter
    (fun (die : Mc.die) ->
      Alcotest.(check (float 1e-12)) "weight 1 under null shift" 1.0
        (Is.weight ~shift:zero die.Mc.z))
    dies

let test_shifted_weights_average_to_one () =
  (* E_q[w] = 1 exactly; the sample mean must be close for a moderate
     shift (fixed seed, so this is deterministic, not flaky) *)
  let d, m = setup "add32" in
  let form = (Ssta.analyze d m).Ssta.circuit_delay in
  let tmax = tmax_at (d, m) 0.95 in
  let mu = Is.shift form ~tmax in
  let dies = Mc.run_dies ~shift:mu ~seed:11 ~first:0 ~count:4096 d m in
  let wacc = Stats.Wacc.create () in
  Array.iter
    (fun (die : Mc.die) -> Stats.Wacc.add wacc ~w:(Is.weight ~shift:mu die.Mc.z) 0.0)
    dies;
  let mw = Stats.Wacc.mean_weight wacc in
  if Float.abs (mw -. 1.0) > 0.25 then
    Alcotest.failf "mean weight %.3f drifted from 1" mw;
  Alcotest.(check bool) "ess positive and below n" true
    (Stats.Wacc.ess wacc > 1.0 && Stats.Wacc.ess wacc < 4096.0)

let test_control_mean_is_analytic () =
  (* the empirical mean of the control must approach its analytic
     expectation — the property CV correctness rests on *)
  let d, m = setup "add32" in
  let form = (Ssta.analyze d m).Ssta.circuit_delay in
  let tmax = tmax_at (d, m) 0.95 in
  let dies = Mc.run_dies ~seed:17 ~first:0 ~count:4096 d m in
  let acc = Stats.Acc.create () in
  Array.iter (fun (die : Mc.die) -> Stats.Acc.add acc (Cv.control form ~tmax die.Mc.z)) dies;
  let analytic = Cv.control_mean form ~tmax in
  let diff = Float.abs (Stats.Acc.mean acc -. analytic) in
  if diff > 4.0 *. Stats.Acc.stderr acc +. 1e-3 then
    Alcotest.failf "control mean %.5f vs analytic %.5f" (Stats.Acc.mean acc) analytic

let check_agrees name (a : Estimate.t) (b : Estimate.t) =
  (* |a − b| within the root-sum-square of the two CI half-widths, padded
     to ~3 sigma: both estimate the same yield *)
  let tol =
    1.6 *. sqrt ((Estimate.halfwidth a ** 2.0) +. (Estimate.halfwidth b ** 2.0))
    +. 1e-4
  in
  if Float.abs (a.Estimate.value -. b.Estimate.value) > tol then
    Alcotest.failf "%s: %.5f vs %.5f (tol %.5f)" name a.Estimate.value
      b.Estimate.value tol

let test_methods_agree_with_naive () =
  List.iter
    (fun name ->
      let d, m = setup name in
      let tmax = tmax_at (d, m) 0.95 in
      let run method_ max_samples =
        Seq.estimate ~jobs:1 ~method_ ~max_samples ~target_halfwidth:0.0 ~seed:23
          ~tmax d m
      in
      let naive = run Seq.Naive 8192 in
      List.iter
        (fun (tag, method_) ->
          let e = run method_ 4096 in
          check_agrees (name ^ "/" ^ tag) naive e;
          Alcotest.(check bool)
            (name ^ "/" ^ tag ^ " stderr positive")
            true (e.Estimate.stderr > 0.0))
        [ ("is", Seq.Is); ("is+cv", Seq.Is_cv); ("cv", Seq.Cv); ("lhs", Seq.Lhs) ])
    [ "c17"; "add32" ]

let test_is_cv_beats_naive_variance () =
  (* the acceptance criterion in miniature: at the same die budget the
     IS+CV standard error must be well below naive's in the 0.99 tail *)
  let d, m = setup "add32" in
  let tmax = tmax_at (d, m) 0.99 in
  let run method_ =
    Seq.estimate ~jobs:1 ~method_ ~max_samples:4096 ~target_halfwidth:0.0 ~seed:29
      ~tmax d m
  in
  let naive = run Seq.Naive and iscv = run Seq.Is_cv in
  let vr =
    (naive.Estimate.stderr /. iscv.Estimate.stderr) ** 2.0
  in
  if not (vr > 4.0) then
    Alcotest.failf "variance reduction only %.2fx (naive se %.5f, is+cv se %.5f)" vr
      naive.Estimate.stderr iscv.Estimate.stderr

let test_seq_stops_at_target () =
  let d, m = setup "c17" in
  let tmax = tmax_at (d, m) 0.95 in
  let e =
    Seq.estimate ~jobs:1 ~method_:Seq.Naive ~max_samples:100_000
      ~target_halfwidth:0.01 ~seed:31 ~tmax d m
  in
  Alcotest.(check bool) "halfwidth met" true (Estimate.halfwidth e <= 0.01 +. 1e-12);
  Alcotest.(check bool) "stopped before cap" true (e.Estimate.samples_used < 100_000);
  Alcotest.(check bool) "chunk-aligned growth" true
    (e.Estimate.samples_used mod Mc.chunk_size = 0)

let test_seq_bit_identical_across_jobs () =
  let d, m = setup "add32" in
  let tmax = tmax_at (d, m) 0.95 in
  List.iter
    (fun (tag, method_) ->
      let run jobs =
        Seq.estimate ~jobs ~method_ ~max_samples:2048 ~target_halfwidth:0.005
          ~seed:37 ~tmax d m
      in
      let base = run 1 in
      List.iter
        (fun jobs ->
          let e = run jobs in
          if e <> base then
            Alcotest.failf "%s: jobs=%d diverged (%.12g vs %.12g, n %d vs %d)" tag
              jobs e.Estimate.value base.Estimate.value e.Estimate.samples_used
              base.Estimate.samples_used)
        [ 2; 4 ])
    [ ("naive", Seq.Naive); ("lhs", Seq.Lhs); ("is", Seq.Is); ("cv", Seq.Cv);
      ("is+cv", Seq.Is_cv) ]

let test_leak_mean_quantity () =
  let d, m = setup "c17" in
  let e =
    Seq.estimate ~jobs:1 ~method_:Seq.Naive ~quantity:Seq.Leak_mean
      ~max_samples:2048 ~target_halfwidth:0.0 ~seed:41 ~tmax:0.0 d m
  in
  let r = Mc.run ~jobs:1 ~seed:41 ~samples:2048 d m in
  Alcotest.(check (float 1e-9)) "leak mean matches run" (Mc.leak_mean r) e.Estimate.value;
  match
    Seq.estimate ~method_:Seq.Is ~quantity:Seq.Leak_mean ~target_halfwidth:0.0
      ~seed:1 ~tmax:0.0 d m
  with
  | _ -> Alcotest.fail "Leak_mean + Is accepted"
  | exception Invalid_argument _ -> ()

let test_lhs_respects_cap () =
  (* LHS grows in whole 1024-die replicates: below two of them there is
     no CI to report, and the cap is never overrun *)
  let d, m = setup "c17" in
  let tmax = tmax_at (d, m) 0.95 in
  let run max_samples =
    Seq.estimate ~jobs:1 ~method_:Seq.Lhs ~max_samples ~target_halfwidth:0.0 ~seed:3
      ~tmax d m
  in
  (match run 100 with
  | _ -> Alcotest.fail "LHS with a 100-die cap accepted"
  | exception Invalid_argument _ -> ());
  let e = run 3000 in
  Alcotest.(check int) "two whole replicates" 2048 e.Estimate.samples_used;
  Alcotest.(check bool) "non-degenerate interval" true (e.Estimate.ci_hi > e.Estimate.ci_lo)

let test_naive_samples_formula () =
  (* z = 1.96: n for p=0.5, hw=0.01 is ~9604 *)
  let n = Estimate.naive_samples ~ci:0.95 ~p:0.5 ~halfwidth:0.01 in
  Alcotest.(check bool) "textbook value" true (n >= 9600 && n <= 9610)

(* Bit pins of the sequential estimator: the die kernel may not move a
   single bit of an estimate. *)
let test_seq_bit_pins () =
  let d, m = setup "add32" in
  let tmax = tmax_at (d, m) 0.95 in
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun (tag, method_, expected) ->
      let e =
        Seq.estimate ~jobs:2 ~method_ ~max_samples:4096 ~target_halfwidth:0.003
          ~seed:42 ~tmax d m
      in
      Alcotest.(check string) tag expected
        (Printf.sprintf "%Lx %Lx %d %Lx" (bits e.Estimate.value)
           (bits e.Estimate.stderr) e.Estimate.samples_used (bits e.Estimate.ess)))
    [
      ("is+cv", Seq.Is_cv, "3fee3d452716a183 3f53df5466eaef19 1024 4055d7745d8b89db");
      ("lhs", Seq.Lhs, "3fee560000000000 3f5b3a39520fb6fb 4096 40b0000000000000");
    ]

let suite =
  [
    ( "yield",
      [
        Alcotest.test_case "run_dies matches run" `Quick test_run_dies_matches_run;
        Alcotest.test_case "run_dies rejects misaligned" `Quick
          test_run_dies_rejects_misaligned;
        Alcotest.test_case "shift places boundary at mean" `Quick
          test_shift_places_boundary_at_mean;
        Alcotest.test_case "null-shift weights are 1" `Quick
          test_null_shift_weights_are_one;
        Alcotest.test_case "shifted weights average to 1" `Quick
          test_shifted_weights_average_to_one;
        Alcotest.test_case "control mean is analytic" `Quick
          test_control_mean_is_analytic;
        Alcotest.test_case "IS/CV agree with naive" `Slow test_methods_agree_with_naive;
        Alcotest.test_case "IS+CV beats naive variance" `Quick
          test_is_cv_beats_naive_variance;
        Alcotest.test_case "seq stops at target" `Quick test_seq_stops_at_target;
        Alcotest.test_case "seq bit-identical across jobs" `Quick
          test_seq_bit_identical_across_jobs;
        Alcotest.test_case "leak-mean quantity" `Quick test_leak_mean_quantity;
        Alcotest.test_case "lhs respects the sample cap" `Quick test_lhs_respects_cap;
        Alcotest.test_case "naive-samples formula" `Quick test_naive_samples_formula;
        Alcotest.test_case "seq bit pins" `Quick test_seq_bit_pins;
      ] );
  ]
