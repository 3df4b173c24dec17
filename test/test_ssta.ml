module Canonical = Sl_ssta.Canonical
module Ssta = Sl_ssta.Ssta
module Sta = Sl_sta.Sta
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Generators = Sl_netlist.Generators
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Rng = Sl_util.Rng
module Stats = Sl_util.Stats

let check_float ?(eps = 1e-9) msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Canonical ---------- *)

let c mean coeffs rnd = Canonical.make ~mean ~coeffs ~rnd

let test_canonical_moments () =
  let x = c 5.0 [| 1.0; 2.0 |] 2.0 in
  check_float "variance" 9.0 (Canonical.variance x);
  check_float "sigma" 3.0 (Canonical.sigma x)

let test_canonical_add () =
  let x = c 1.0 [| 1.0; 0.0 |] 3.0 in
  let y = c 2.0 [| 0.5; -1.0 |] 4.0 in
  let s = Canonical.add x y in
  check_float "mean" 3.0 s.Canonical.mean;
  check_float "coeff0" 1.5 s.Canonical.coeffs.(0);
  check_float "coeff1" (-1.0) s.Canonical.coeffs.(1);
  check_float "rnd rss" 5.0 s.Canonical.rnd

let test_canonical_covariance () =
  let x = c 0.0 [| 1.0; 2.0 |] 5.0 in
  let y = c 0.0 [| 3.0; -1.0 |] 7.0 in
  check_float "cov through PCs only" 1.0 (Canonical.covariance x y)

let test_canonical_max_dominant () =
  let x = c 100.0 [| 1.0 |] 0.5 in
  let y = c 0.0 [| 0.3 |] 0.2 in
  let m = Canonical.max2 x y in
  check_float ~eps:1e-9 "mean" 100.0 m.Canonical.mean;
  check_float ~eps:1e-6 "keeps dominant coeff" 1.0 m.Canonical.coeffs.(0);
  check_float ~eps:1e-9 "tightness" 1.0 (Canonical.tightness x y)

let test_canonical_max_matches_clark_variance () =
  let x = c 10.0 [| 2.0; 0.0 |] 1.0 in
  let y = c 11.0 [| 1.0; 1.5 |] 0.5 in
  let m = Canonical.max2 x y in
  (* total variance of the re-linearized form equals Clark's variance *)
  let rho = Canonical.correlation x y in
  let _, var, _ =
    Sl_util.Special.clark_max_moments ~mu1:10.0 ~sigma1:(Canonical.sigma x) ~mu2:11.0
      ~sigma2:(Canonical.sigma y) ~rho
  in
  check_float ~eps:1e-9 "variance preserved" var (Canonical.variance m)

let test_canonical_max_vs_mc () =
  (* canonical max of correlated forms against direct simulation *)
  let x = c 10.0 [| 2.0; 1.0 |] 1.0 in
  let y = c 10.5 [| 1.5; -0.5 |] 1.2 in
  let m = Canonical.max2 x y in
  let rng = Rng.create 3 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 100_000 do
    let z = Rng.gaussian_vector rng 2 in
    let vx = Canonical.eval x ~z ~r:(Rng.gaussian rng) in
    let vy = Canonical.eval y ~z ~r:(Rng.gaussian rng) in
    Stats.Acc.add acc (Float.max vx vy)
  done;
  if Float.abs (Stats.Acc.mean acc -. m.Canonical.mean) > 0.03 then
    Alcotest.failf "max mean %.4f vs MC %.4f" m.Canonical.mean (Stats.Acc.mean acc);
  if Float.abs (Stats.Acc.std acc -. Canonical.sigma m) > 0.03 then
    Alcotest.failf "max std %.4f vs MC %.4f" (Canonical.sigma m) (Stats.Acc.std acc)

let test_canonical_quantile_roundtrip () =
  let x = c 3.0 [| 0.7 |] 0.3 in
  List.iter
    (fun p -> check_float ~eps:1e-9 "cdf(q(p))=p" p (Canonical.cdf x (Canonical.quantile x p)))
    [ 0.01; 0.5; 0.95; 0.99 ]

let test_canonical_basis_mismatch () =
  match Canonical.add (c 0.0 [| 1.0 |] 0.0) (c 0.0 [| 1.0; 2.0 |] 0.0) with
  | _ -> Alcotest.fail "mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ---------- SSTA vs deterministic STA ---------- *)

let setup ?(spec = Spec.default) circuit =
  let d = Design.create (Cell_lib.default ()) circuit in
  let m = Model.build spec circuit in
  (d, m)

let test_ssta_zero_variation_equals_sta () =
  let spec =
    { Spec.default with Spec.sigma_vth = 0.0; sigma_l = 0.0 }
  in
  let d, m = setup ~spec (Benchmarks.c17 ()) in
  let res = Ssta.analyze d m in
  let det = Sta.dmax d in
  check_float ~eps:1e-9 "mean = deterministic dmax" det
    res.Ssta.circuit_delay.Canonical.mean;
  check_float ~eps:1e-9 "zero sigma" 0.0 (Canonical.sigma res.Ssta.circuit_delay)

(* ---------- level-parallel propagation: bit-identity ---------- *)

let bits = Int64.bits_of_float

let canon_bits_equal (a : Canonical.t) (b : Canonical.t) =
  Int64.equal (bits a.Canonical.mean) (bits b.Canonical.mean)
  && Int64.equal (bits a.Canonical.rnd) (bits b.Canonical.rnd)
  && Array.length a.Canonical.coeffs = Array.length b.Canonical.coeffs
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       a.Canonical.coeffs b.Canonical.coeffs

let check_canon_array_identical name a b =
  if Array.length a <> Array.length b then Alcotest.failf "%s: length" name;
  Array.iteri
    (fun i x ->
      if not (canon_bits_equal x b.(i)) then
        Alcotest.failf "%s: slot %d differs" name i)
    a

let test_parallel_analyze_bit_identical () =
  (* every suite circuit, forward + backward, jobs in {1,2,4}: the
     arena's level schedule must replicate the sequential float-operation
     order to the IEEE bit.  A tight threshold forces even narrow levels
     onto the parallel path. *)
  List.iter
    (fun name ->
      let circuit =
        match Benchmarks.by_name name with Some c -> c | None -> assert false
      in
      let d, m = setup circuit in
      let base = Ssta.analyze ~jobs:1 d m in
      let base_bwd = Ssta.backward ~jobs:1 circuit base in
      List.iter
        (fun jobs ->
          let res = Ssta.analyze ~jobs ~par_threshold:2 d m in
          check_canon_array_identical
            (Printf.sprintf "%s arrival jobs=%d" name jobs)
            base.Ssta.arrival res.Ssta.arrival;
          check_canon_array_identical
            (Printf.sprintf "%s gate_delay jobs=%d" name jobs)
            base.Ssta.gate_delay res.Ssta.gate_delay;
          if not (canon_bits_equal base.Ssta.circuit_delay res.Ssta.circuit_delay)
          then Alcotest.failf "%s circuit_delay jobs=%d" name jobs;
          let bwd = Ssta.backward ~jobs ~par_threshold:2 circuit res in
          check_canon_array_identical
            (Printf.sprintf "%s backward jobs=%d" name jobs)
            base_bwd bwd)
        [ 2; 4 ])
    [ "c17"; "add32"; "mult8"; "rand1200" ]

let test_parallel_analyze_frozen_memo () =
  (* with a frozen memo the delay-derivation stage parallelizes too, and
     must still agree with the memo-free sequential analysis *)
  let circuit = Generators.random_dag ~seed:5 ~gates:400 ~inputs:30 ~outputs:10 in
  let d, m = setup circuit in
  let memo = Sl_tech.Memo.create (Cell_lib.default ()) in
  Sl_tech.Memo.prefill memo d;
  Sl_tech.Memo.freeze memo;
  let base = Ssta.analyze ~memo ~jobs:1 d m in
  let res = Ssta.analyze ~memo ~jobs:4 ~par_threshold:2 d m in
  check_canon_array_identical "frozen-memo arrival" base.Ssta.arrival
    res.Ssta.arrival;
  if not (canon_bits_equal base.Ssta.circuit_delay res.Ssta.circuit_delay) then
    Alcotest.fail "frozen-memo circuit delay differs"

let test_parallel_stats_counters () =
  let circuit = Generators.random_dag ~seed:5 ~gates:400 ~inputs:30 ~outputs:10 in
  let d, m = setup circuit in
  let stats = Ssta.par_stats () in
  ignore (Ssta.analyze ~jobs:2 ~par_threshold:8 ~stats d m);
  let forward_batches = stats.Ssta.par_levels + stats.Ssta.seq_levels in
  Alcotest.(check bool) "some batches recorded" true (forward_batches > 0);
  Alcotest.(check bool) "some level cleared the threshold" true
    (stats.Ssta.par_levels > 0);
  Alcotest.(check bool) "max width sane" true
    (stats.Ssta.max_level_width >= 8
    && stats.Ssta.max_level_width <= Circuit.num_gates circuit);
  (* jobs=1 runs everything inline regardless of width *)
  let seq_stats = Ssta.par_stats () in
  ignore (Ssta.analyze ~jobs:1 ~par_threshold:8 ~stats:seq_stats d m);
  Alcotest.(check int) "jobs=1 never uses domains" 0 seq_stats.Ssta.par_levels

let test_ssta_mean_exceeds_nominal () =
  (* max of random variables: E[max] >= max of means *)
  let d, m = setup (Generators.array_multiplier 8) in
  let res = Ssta.analyze d m in
  let det = Sta.dmax d in
  Alcotest.(check bool) "mean >= nominal dmax" true
    (res.Ssta.circuit_delay.Canonical.mean >= det -. 1e-9)

let test_ssta_yield_monotone_in_tmax () =
  let d, m = setup (Generators.ripple_adder 16) in
  let res = Ssta.analyze d m in
  let d0 = res.Ssta.circuit_delay.Canonical.mean in
  let prev = ref 0.0 in
  List.iter
    (fun k ->
      let y = Ssta.timing_yield res ~tmax:(d0 *. k) in
      Alcotest.(check bool) "monotone" true (y >= !prev);
      prev := y)
    [ 0.9; 0.95; 1.0; 1.05; 1.1; 1.2 ]

let test_tmax_for_yield_roundtrip () =
  let d, m = setup (Generators.ripple_adder 16) in
  let res = Ssta.analyze d m in
  List.iter
    (fun p ->
      let t = Ssta.tmax_for_yield res ~p in
      check_float ~eps:1e-9 "yield(tmax(p)) = p" p (Ssta.timing_yield res ~tmax:t))
    [ 0.5; 0.9; 0.95; 0.99 ]

(* The headline validation: SSTA circuit-delay distribution vs Monte Carlo
   on the very same model.  First-order SSTA on a max-heavy circuit is
   expected to track MC mean/std within a few percent and yield within a
   couple of points. *)
let test_ssta_vs_monte_carlo () =
  List.iter
    (fun circuit ->
      let d, m = setup circuit in
      let res = Ssta.analyze d m in
      let mc = Sl_mc.Mc.run ~seed:5 ~samples:4000 d m in
      let mc_mean = Sl_mc.Mc.delay_mean mc and mc_std = Sl_mc.Mc.delay_std mc in
      let ss_mean = res.Ssta.circuit_delay.Canonical.mean in
      let ss_std = Canonical.sigma res.Ssta.circuit_delay in
      if Float.abs (ss_mean -. mc_mean) /. mc_mean > 0.04 then
        Alcotest.failf "%s: SSTA mean %.2f vs MC %.2f" circuit.Circuit.name ss_mean mc_mean;
      if Float.abs (ss_std -. mc_std) /. mc_std > 0.25 then
        Alcotest.failf "%s: SSTA std %.2f vs MC %.2f" circuit.Circuit.name ss_std mc_std;
      (* yield agreement at a few constraints around the mean *)
      List.iter
        (fun k ->
          let tmax = mc_mean *. k in
          let y_ssta = Ssta.timing_yield res ~tmax in
          let y_mc = Sl_mc.Mc.timing_yield mc ~tmax in
          if Float.abs (y_ssta -. y_mc) > 0.05 then
            Alcotest.failf "%s tmax=%.2f: SSTA yield %.3f vs MC %.3f"
              circuit.Circuit.name tmax y_ssta y_mc)
        [ 0.97; 1.0; 1.03; 1.06 ])
    [ Generators.ripple_adder 16; Generators.array_multiplier 8 ]

(* ---------- backward / criticality ---------- *)

let test_backward_po_drivers_zero () =
  let d, m = setup (Benchmarks.c17 ()) in
  let res = Ssta.analyze d m in
  let s = Ssta.backward d.Design.circuit res in
  (* a PO-driving gate with no other fanout has S = 0 *)
  Array.iter
    (fun id ->
      let g = Circuit.gate d.Design.circuit id in
      if Array.length g.Circuit.fanout = 0 then
        check_float ~eps:1e-12 "S=0 at sink" 0.0 s.(id).Canonical.mean)
    d.Design.circuit.Circuit.outputs

let test_path_through_bounded_by_circuit_delay () =
  let d, m = setup (Generators.array_multiplier 8) in
  let res = Ssta.analyze d m in
  let s = Ssta.backward d.Design.circuit res in
  let dmean = res.Ssta.circuit_delay.Canonical.mean in
  Array.iter
    (fun (g : Circuit.gate) ->
      let t = Ssta.path_through res ~backward:s g.Circuit.id in
      (* every path through a gate is a subset of all paths: its mean
         cannot exceed the circuit-delay mean by more than numerical slop
         of the re-linearized maxima *)
      if t.Canonical.mean > dmean *. 1.02 then
        Alcotest.failf "gate %d path mean %.2f > circuit %.2f" g.Circuit.id
          t.Canonical.mean dmean)
    d.Design.circuit.Circuit.gates

(* [path_into] forms the path sum and its sigma in one pass; the
   reference is the stored sum ([Arena.add]) and its [Arena.sigma].  Real
   arrival and required-time slots of mult8, then random rows (zero and
   non-zero remainders) over 0, 1 and 7 PCs, compared word for word. *)
let test_path_into_matches_add_sigma () =
  let module Arena = Sl_ssta.Arena in
  let check tag ~arr ~bwd =
    let n = arr.Arena.n in
    let mu = Array.make n 0.0 and sigma = Array.make n 0.0 in
    let term = Arena.create ~n:1 ~num_pcs:arr.Arena.num_pcs in
    for id = 0 to n - 1 do
      Ssta.path_into ~arr ~bwd id ~mu ~sigma;
      Arena.add arr id bwd id ~dst:term 0;
      let bits = Int64.bits_of_float in
      if bits mu.(id) <> bits term.Arena.data.(0) then
        Alcotest.failf "%s slot %d: mu %h, reference %h" tag id mu.(id) term.Arena.data.(0);
      if bits sigma.(id) <> bits (Arena.sigma term 0) then
        Alcotest.failf "%s slot %d: sigma %h, reference %h" tag id sigma.(id)
          (Arena.sigma term 0)
    done
  in
  let d, m = setup (Generators.array_multiplier 8) in
  let res = Ssta.analyze d m in
  let slots recs =
    let a = Arena.create ~n:(Array.length recs) ~num_pcs:(Model.num_pcs m) in
    Array.iteri (Arena.set a) recs;
    a
  in
  check "mult8" ~arr:(slots res.Ssta.arrival)
    ~bwd:(slots (Ssta.backward d.Design.circuit res));
  let r = Rng.create 23 in
  List.iter
    (fun num_pcs ->
      let random () =
        let a = Arena.create ~n:64 ~num_pcs in
        for i = 0 to 63 do
          Arena.set a i
            (Canonical.make ~mean:(Rng.float r 200.0 -. 50.0)
               ~coeffs:(Array.init num_pcs (fun _ -> Rng.float r 6.0 -. 3.0))
               ~rnd:(if i mod 5 = 0 then 0.0 else Rng.float r 4.0))
        done;
        a
      in
      check (Printf.sprintf "random, %d PCs" num_pcs) ~arr:(random ()) ~bwd:(random ()))
    [ 0; 1; 7 ]

let test_criticality_in_range_and_peaks_on_critical_path () =
  let d, m = setup (Generators.ripple_adder 16) in
  let res = Ssta.analyze d m in
  let s = Ssta.backward d.Design.circuit res in
  let tmax = Ssta.tmax_for_yield res ~p:0.85 in
  let det = Sta.analyze d in
  let path = Sta.critical_path d.Design.circuit det in
  let on_path = Array.to_list path in
  let crit id = Ssta.node_criticality res ~backward:s ~tmax id in
  Array.iter
    (fun (g : Circuit.gate) ->
      let cr = crit g.Circuit.id in
      if not (cr >= 0.0 && cr <= 1.0) then Alcotest.failf "criticality %g" cr)
    d.Design.circuit.Circuit.gates;
  (* gates on the deterministic critical path should be among the most
     statistically critical *)
  let path_avg =
    List.fold_left (fun a id -> a +. crit id) 0.0 on_path
    /. float_of_int (List.length on_path)
  in
  let all_avg =
    let acc = ref 0.0 and n = ref 0 in
    Array.iter
      (fun (g : Circuit.gate) ->
        if g.Circuit.kind <> Cell_kind.Pi then begin
          acc := !acc +. crit g.Circuit.id;
          incr n
        end)
      d.Design.circuit.Circuit.gates;
    !acc /. float_of_int !n
  in
  Alcotest.(check bool)
    (Printf.sprintf "critical path avg %.3f > overall %.3f" path_avg all_avg)
    true (path_avg > all_avg)

let test_statistical_slack_sign () =
  let d, m = setup (Generators.ripple_adder 8) in
  let res = Ssta.analyze d m in
  let s = Ssta.backward d.Design.circuit res in
  let loose = Ssta.tmax_for_yield res ~p:0.999 *. 1.2 in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then begin
        let sl = Ssta.statistical_slack res ~backward:s ~eta:0.99 ~tmax:loose g.Circuit.id in
        if sl <= 0.0 then Alcotest.failf "slack %g should be positive at loose tmax" sl
      end)
    d.Design.circuit.Circuit.gates

let prop_max_upper_bounds_operands =
  QCheck.Test.make ~name:"canonical max mean >= operand means" ~count:200
    QCheck.(
      quad (float_range (-10.0) 10.0) (float_range 0.0 3.0) (float_range (-10.0) 10.0)
        (float_range 0.0 3.0))
    (fun (m1, s1, m2, s2) ->
      let x = c m1 [| s1 |] 0.1 in
      let y = c m2 [| 0.0 |] s2 in
      let m = Canonical.max2 x y in
      m.Canonical.mean >= Float.max m1 m2 -. 1e-9)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "ssta.canonical",
      [
        Alcotest.test_case "moments" `Quick test_canonical_moments;
        Alcotest.test_case "add" `Quick test_canonical_add;
        Alcotest.test_case "covariance" `Quick test_canonical_covariance;
        Alcotest.test_case "max dominant" `Quick test_canonical_max_dominant;
        Alcotest.test_case "max variance = Clark" `Quick test_canonical_max_matches_clark_variance;
        Alcotest.test_case "max vs MC" `Slow test_canonical_max_vs_mc;
        Alcotest.test_case "quantile roundtrip" `Quick test_canonical_quantile_roundtrip;
        Alcotest.test_case "basis mismatch" `Quick test_canonical_basis_mismatch;
      ]
      @ qc [ prop_max_upper_bounds_operands ] );
    ( "ssta.analysis",
      [
        Alcotest.test_case "zero variation = STA" `Quick test_ssta_zero_variation_equals_sta;
        Alcotest.test_case "mean exceeds nominal" `Quick test_ssta_mean_exceeds_nominal;
        Alcotest.test_case "yield monotone" `Quick test_ssta_yield_monotone_in_tmax;
        Alcotest.test_case "tmax_for_yield roundtrip" `Quick test_tmax_for_yield_roundtrip;
        Alcotest.test_case "SSTA vs Monte Carlo" `Slow test_ssta_vs_monte_carlo;
      ] );
    ( "ssta.parallel",
      [
        Alcotest.test_case "analyze bit-identical across jobs" `Quick
          test_parallel_analyze_bit_identical;
        Alcotest.test_case "frozen memo parallel delay fill" `Quick
          test_parallel_analyze_frozen_memo;
        Alcotest.test_case "par_stats counters" `Quick test_parallel_stats_counters;
      ] );
    ( "ssta.criticality",
      [
        Alcotest.test_case "backward zero at sinks" `Quick test_backward_po_drivers_zero;
        Alcotest.test_case "path-through bounded" `Quick test_path_through_bounded_by_circuit_delay;
        Alcotest.test_case "path_into = add then sigma" `Quick test_path_into_matches_add_sigma;
        Alcotest.test_case "criticality ranking" `Quick test_criticality_in_range_and_peaks_on_critical_path;
        Alcotest.test_case "statistical slack sign" `Quick test_statistical_slack_sign;
      ] );
  ]
