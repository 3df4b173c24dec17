module Lognormal = Sl_leakage.Lognormal
module Leak_ssta = Sl_leakage.Leak_ssta
module Corner = Sl_leakage.Corner
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Tech = Sl_tech.Tech
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Generators = Sl_netlist.Generators
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Rng = Sl_util.Rng

let check_float ?(eps = 1e-9) msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Lognormal ---------- *)

let test_lognormal_moments () =
  let t = Lognormal.of_gaussian_exponent ~mu:1.0 ~sigma:0.5 in
  check_float "mean" (exp 1.125) (Lognormal.mean t);
  check_float "variance"
    ((exp 0.25 -. 1.0) *. exp 2.25)
    (Lognormal.variance t);
  check_float "median" (exp 1.0) (Lognormal.median t)

let test_lognormal_moment_matching_roundtrip () =
  let t = Lognormal.of_moments ~mean:100.0 ~variance:400.0 in
  check_float ~eps:1e-12 "mean recovered" 100.0 (Lognormal.mean t);
  check_float ~eps:1e-9 "variance recovered" 400.0 (Lognormal.variance t)

let test_lognormal_quantile_cdf_roundtrip () =
  let t = Lognormal.of_moments ~mean:5.0 ~variance:2.0 in
  List.iter
    (fun p -> check_float ~eps:1e-9 "roundtrip" p (Lognormal.cdf t (Lognormal.quantile t p)))
    [ 0.01; 0.5; 0.95; 0.99 ]

let test_lognormal_rejects_bad_moments () =
  (match Lognormal.of_moments ~mean:(-1.0) ~variance:1.0 with
  | _ -> Alcotest.fail "negative mean accepted"
  | exception Invalid_argument _ -> ());
  match Lognormal.of_gaussian_exponent ~mu:0.0 ~sigma:(-1.0) with
  | _ -> Alcotest.fail "negative sigma accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Leak_ssta ---------- *)

let setup ?(spec = Spec.default) circuit =
  let d = Design.create (Cell_lib.default ()) circuit in
  let m = Model.build spec circuit in
  (d, m)

let test_mean_exceeds_nominal () =
  (* E[exp] > exp(E): the central claim motivating the paper *)
  let d, m = setup (Generators.array_multiplier 8) in
  let l = Leak_ssta.create d m in
  let ratio = Leak_ssta.mean l /. Leak_ssta.nominal l in
  Alcotest.(check bool)
    (Printf.sprintf "mean/nominal = %.3f in [1.1, 2.0]" ratio)
    true
    (ratio > 1.1 && ratio < 2.0)

let test_zero_variation_collapses () =
  let spec = { Spec.default with Spec.sigma_vth = 0.0; sigma_l = 0.0 } in
  let d, m = setup ~spec (Benchmarks.c17 ()) in
  let l = Leak_ssta.create d m in
  check_float ~eps:1e-12 "mean = nominal" (Leak_ssta.nominal l) (Leak_ssta.mean l);
  check_float ~eps:1e-9 "zero variance" 0.0 (Leak_ssta.variance l);
  check_float ~eps:1e-9 "nominal = design total" (Design.total_leak_nominal d)
    (Leak_ssta.nominal l)

(* Golden validation: exact Wilkinson moments vs Monte Carlo. *)
let test_moments_vs_monte_carlo () =
  List.iter
    (fun circuit ->
      let d, m = setup circuit in
      let l = Leak_ssta.create d m in
      let mc = Sl_mc.Mc.run ~seed:11 ~samples:6000 d m in
      let mc_mean = Sl_mc.Mc.leak_mean mc and mc_std = Sl_mc.Mc.leak_std mc in
      let rel_mean = Float.abs (Leak_ssta.mean l -. mc_mean) /. mc_mean in
      if rel_mean > 0.03 then
        Alcotest.failf "%s: mean %.4g vs MC %.4g (%.1f%%)" circuit.Circuit.name
          (Leak_ssta.mean l) mc_mean (100.0 *. rel_mean);
      let rel_std = Float.abs (Leak_ssta.std l -. mc_std) /. mc_std in
      if rel_std > 0.10 then
        Alcotest.failf "%s: std %.4g vs MC %.4g (%.1f%%)" circuit.Circuit.name
          (Leak_ssta.std l) mc_std (100.0 *. rel_std);
      (* 95th/99th percentile of the matched lognormal vs empirical *)
      List.iter
        (fun p ->
          let q_model = Leak_ssta.quantile l p in
          let q_mc = Sl_mc.Mc.leak_quantile mc p in
          if Float.abs (q_model -. q_mc) /. q_mc > 0.08 then
            Alcotest.failf "%s p%.0f: %.4g vs MC %.4g" circuit.Circuit.name
              (100.0 *. p) q_model q_mc)
        [ 0.5; 0.95; 0.99 ])
    [ Generators.ripple_adder 16; Generators.random_dag ~seed:21 ~gates:500 ~inputs:32 ~outputs:16 ]

let test_update_gate_matches_rebuild () =
  let d, m = setup (Generators.ripple_adder 8) in
  let l = Leak_ssta.create d m in
  let rng = Rng.create 9 in
  (* random walk of assignment changes with incremental updates *)
  let cells =
    Array.to_list d.Design.circuit.Circuit.gates
    |> List.filter_map (fun (g : Circuit.gate) ->
           if g.Circuit.kind <> Cell_kind.Pi then Some g.Circuit.id else None)
  in
  let cells = Array.of_list cells in
  for _ = 1 to 60 do
    let id = cells.(Rng.int rng (Array.length cells)) in
    Design.set_vth d id (Rng.int rng 2);
    Design.set_size d id (Rng.int rng 7);
    Leak_ssta.update_gate l id
  done;
  let mean_inc = Leak_ssta.mean l and var_inc = Leak_ssta.variance l in
  Leak_ssta.refresh l;
  check_float ~eps:1e-9 "incremental mean" (Leak_ssta.mean l) mean_inc;
  check_float ~eps:1e-6 "incremental variance" (Leak_ssta.variance l) var_inc

let test_mean_if_matches_actual_change () =
  let d, m = setup (Benchmarks.c17 ()) in
  let l = Leak_ssta.create d m in
  let id = d.Design.circuit.Circuit.outputs.(0) in
  let predicted = Leak_ssta.mean l +. Leak_ssta.mean_shift_if l id ~vth_idx:1 ~size_idx:2 in
  Design.set_vth d id 1;
  Design.set_size d id 2;
  Leak_ssta.update_gate l id;
  check_float ~eps:1e-9 "what-if = actual" (Leak_ssta.mean l) predicted

let test_quantile_if_matches_actual_change () =
  let d, m = setup (Benchmarks.c17 ()) in
  let l = Leak_ssta.create d m in
  let id = d.Design.circuit.Circuit.outputs.(0) in
  let predicted = Leak_ssta.quantile_if l id ~vth_idx:1 ~size_idx:1 ~p:0.99 in
  Design.set_vth d id 1;
  Design.set_size d id 1;
  Leak_ssta.update_gate l id;
  check_float ~eps:1e-9 "what-if p99 = actual" (Leak_ssta.quantile l 0.99) predicted

let test_high_vth_reduces_statistical_mean () =
  let d, m = setup (Generators.ripple_adder 8) in
  let l = Leak_ssta.create d m in
  let before = Leak_ssta.mean l in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then begin
        Design.set_vth d g.Circuit.id 1;
        Leak_ssta.update_gate l g.Circuit.id
      end)
    d.Design.circuit.Circuit.gates;
  let after = Leak_ssta.mean l in
  check_float ~eps:1e-9 "scales by leak ratio" (Tech.leak_ratio Tech.default)
    (before /. after)

let test_gate_mean_sums_to_total () =
  let d, m = setup (Generators.array_multiplier 6) in
  let l = Leak_ssta.create d m in
  let acc = ref 0.0 in
  for id = 0 to Circuit.num_gates d.Design.circuit - 1 do
    acc := !acc +. Leak_ssta.gate_mean l id
  done;
  check_float ~eps:1e-9 "sum of gate means = total mean" (Leak_ssta.mean l) !acc

(* ---------- Corner ---------- *)

let test_corner_nominal_matches_design () =
  let d, _ = setup (Benchmarks.c17 ()) in
  check_float ~eps:1e-12 "nominal corner" (Design.total_leak_nominal d)
    (Corner.total_at d ~dvth:0.0 ~dl:0.0)

let test_fast_corner_leaks_more () =
  let d, _ = setup (Benchmarks.c17 ()) in
  let dvth, dl = Corner.fast_corner_shift Spec.default ~k:3.0 in
  Alcotest.(check bool) "shifts negative" true (dvth < 0.0 && dl < 0.0);
  let fast = Corner.total_at d ~dvth ~dl in
  let nom = Corner.total_at d ~dvth:0.0 ~dl:0.0 in
  Alcotest.(check bool) "fast corner leaks much more" true (fast > 2.0 *. nom)

let prop_mean_always_at_least_nominal =
  QCheck.Test.make ~name:"statistical mean >= nominal leakage" ~count:10
    QCheck.(int_range 1 300)
    (fun seed ->
      let c = Generators.random_dag ~seed ~gates:120 ~inputs:12 ~outputs:6 in
      let d, m = setup c in
      let l = Leak_ssta.create d m in
      Leak_ssta.mean l >= Leak_ssta.nominal l)

(* Random histories of single-gate edits (with and without
   [update_gate]), saves, bulk [Array.blit] restores and repeated
   refreshes: after every [refresh] each reader returns the IEEE words a
   fresh [create] on a copy of the design does. *)
let prop_refresh_equals_create =
  QCheck.Test.make ~name:"refresh = create" ~count:40
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(int_range 1 40) (int_range 0 5)))
    (fun (seed, ops) ->
      let d, m = setup (Generators.random_dag ~seed ~gates:150 ~inputs:12 ~outputs:6) in
      let l = Leak_ssta.create d m in
      let rng = Rng.create seed in
      let cells =
        Array.of_list
          (List.filter_map
             (fun (g : Circuit.gate) ->
               if g.Circuit.kind <> Cell_kind.Pi then Some g.Circuit.id else None)
             (Array.to_list d.Design.circuit.Circuit.gates))
      in
      let pick () = cells.(Rng.int rng (Array.length cells)) in
      let set id =
        if Rng.int rng 2 = 0 then Design.set_vth d id (Rng.int rng (Cell_lib.num_vth d.Design.lib))
        else Design.set_size d id (Rng.int rng (Cell_lib.num_sizes d.Design.lib))
      in
      let capture () = (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx) in
      let saved = ref (capture ()) in
      let bits x = Int64.bits_of_float x in
      let same_as_fresh () =
        let f = Leak_ssta.create (Design.copy d) m in
        let eq g = Int64.equal (bits (g l)) (bits (g f)) in
        let probes = List.init 4 (fun _ -> pick ()) in
        eq Leak_ssta.mean && eq Leak_ssta.variance && eq Leak_ssta.nominal
        && eq (fun t -> Leak_ssta.quantile t 0.99)
        && Array.for_all
             (fun (g : Circuit.gate) -> eq (fun t -> Leak_ssta.gate_mean t g.Circuit.id))
             d.Design.circuit.Circuit.gates
        && List.for_all
             (fun id ->
               let vth_idx = 1 - d.Design.vth_idx.(id)
               and size_idx = Rng.int rng (Cell_lib.num_sizes d.Design.lib) in
               eq (fun t -> Leak_ssta.mean_shift_if t id ~vth_idx ~size_idx)
               && eq (fun t -> Leak_ssta.quantile_if t id ~vth_idx ~size_idx ~p:0.99))
             probes
      in
      let step = function
        | 0 | 1 ->
          let id = pick () in
          set id;
          Leak_ssta.update_gate l id;
          true
        | 2 ->
          set (pick ());
          true
        | 3 ->
          saved := capture ();
          true
        | 4 ->
          let v, sz = !saved in
          Array.blit v 0 d.Design.vth_idx 0 (Array.length v);
          Array.blit sz 0 d.Design.size_idx 0 (Array.length sz);
          true
        | _ ->
          Leak_ssta.refresh l;
          same_as_fresh ()
      in
      List.for_all step ops && step 5 && step 5)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "leakage.lognormal",
      [
        Alcotest.test_case "moments" `Quick test_lognormal_moments;
        Alcotest.test_case "moment matching roundtrip" `Quick test_lognormal_moment_matching_roundtrip;
        Alcotest.test_case "quantile roundtrip" `Quick test_lognormal_quantile_cdf_roundtrip;
        Alcotest.test_case "rejects bad moments" `Quick test_lognormal_rejects_bad_moments;
      ] );
    ( "leakage.statistical",
      [
        Alcotest.test_case "mean exceeds nominal" `Quick test_mean_exceeds_nominal;
        Alcotest.test_case "zero variation collapses" `Quick test_zero_variation_collapses;
        Alcotest.test_case "moments vs Monte Carlo" `Slow test_moments_vs_monte_carlo;
        Alcotest.test_case "incremental = rebuild" `Quick test_update_gate_matches_rebuild;
        Alcotest.test_case "what-if matches actual" `Quick test_mean_if_matches_actual_change;
        Alcotest.test_case "what-if p99 matches actual" `Quick test_quantile_if_matches_actual_change;
        Alcotest.test_case "high vth reduces mean" `Quick test_high_vth_reduces_statistical_mean;
        Alcotest.test_case "gate means sum to total" `Quick test_gate_mean_sums_to_total;
      ]
      @ qc [ prop_mean_always_at_least_nominal; prop_refresh_equals_create ] );
    ( "leakage.corner",
      [
        Alcotest.test_case "nominal corner" `Quick test_corner_nominal_matches_design;
        Alcotest.test_case "fast corner leaks more" `Quick test_fast_corner_leaks_more;
      ] );
  ]
