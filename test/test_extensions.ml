(* Tests for the extension modules: Heap, Ks, Paths, State_leak/Ivc,
   Path_ssta. *)

module Heap = Sl_util.Heap
module Rng = Sl_util.Rng
module Special = Sl_util.Special
module Paths = Sl_sta.Paths
module Path_ssta = Sl_ssta.Path_ssta
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module State_leak = Sl_leakage.State_leak
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Generators = Sl_netlist.Generators
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Sta = Sl_sta.Sta

let check_float ?(eps = 1e-9) msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let h = Heap.create () in
  let rng = Rng.create 5 in
  let xs = Array.init 500 (fun _ -> Rng.uniform rng) in
  Array.iter (fun x -> Heap.push h x x) xs;
  Alcotest.(check int) "length" 500 (Heap.length h);
  let prev = ref infinity in
  for _ = 1 to 500 do
    match Heap.pop h with
    | Some (p, x) ->
      Alcotest.(check bool) "non-increasing" true (p <= !prev);
      check_float "payload = priority" p x;
      prev := p
    | None -> Alcotest.fail "heap exhausted early"
  done;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h 1.0 "a";
  Heap.push h 3.0 "c";
  Heap.push h 2.0 "b";
  (match Heap.peek h with
  | Some (p, x) ->
    check_float "max priority" 3.0 p;
    Alcotest.(check string) "max payload" "c" x
  | None -> Alcotest.fail "peek");
  Alcotest.(check int) "peek does not pop" 3 (Heap.length h)

(* ---------- Ks ---------- *)

let test_ks_gaussian_fits_gaussian () =
  let rng = Rng.create 11 in
  let xs = Array.init 4000 (fun _ -> Rng.gaussian rng) in
  let d = Ks.statistic_against Special.normal_cdf xs in
  Alcotest.(check bool)
    (Printf.sprintf "KS %.4f below 1%% critical %.4f" d (Ks.critical_value 4000))
    true
    (d < Ks.critical_value 4000)

let test_ks_detects_mismatch () =
  let rng = Rng.create 11 in
  let xs = Array.init 4000 (fun _ -> 0.5 +. Rng.gaussian rng) in
  let d = Ks.statistic_against Special.normal_cdf xs in
  Alcotest.(check bool) "shifted sample rejected" true (d > Ks.critical_value 4000)

let test_ks_two_sample () =
  let rng = Rng.create 13 in
  let xs = Array.init 3000 (fun _ -> Rng.gaussian rng) in
  let ys = Array.init 3000 (fun _ -> Rng.gaussian rng) in
  let same = Ks.statistic_two_sample xs ys in
  let zs = Array.init 3000 (fun _ -> 2.0 *. Rng.gaussian rng) in
  let diff = Ks.statistic_two_sample xs zs in
  Alcotest.(check bool) "same small, diff large" true (same < 0.05 && diff > 0.1)

(* ---------- Paths ---------- *)

let design ?(circuit = Generators.ripple_adder 8) () =
  Design.create ~size_idx:2 (Cell_lib.default ()) circuit

let test_paths_first_is_critical_path () =
  let d = design () in
  match Paths.k_most_critical d ~k:1 with
  | [ p ] ->
    check_float ~eps:1e-9 "top path delay = dmax" (Sta.dmax d) p.Paths.delay
  | _ -> Alcotest.fail "expected exactly one path"

let test_paths_sorted_and_valid () =
  let d = design ~circuit:(Generators.array_multiplier 6) () in
  let c = d.Design.circuit in
  let paths = Paths.k_most_critical d ~k:50 in
  Alcotest.(check int) "got 50" 50 (List.length paths);
  let prev = ref infinity in
  List.iter
    (fun (p : Paths.path) ->
      Alcotest.(check bool) "non-increasing" true (p.Paths.delay <= !prev +. 1e-9);
      prev := p.Paths.delay;
      (* structural validity: starts at PI, ends at PO, edges exist *)
      let first = p.Paths.gates.(0) in
      Alcotest.(check bool) "starts at PI" true
        ((Circuit.gate c first).Circuit.kind = Cell_kind.Pi);
      Alcotest.(check bool) "ends at PO" true
        (Circuit.is_po c p.Paths.gates.(Array.length p.Paths.gates - 1));
      for i = 1 to Array.length p.Paths.gates - 1 do
        let g = Circuit.gate c p.Paths.gates.(i) in
        if not (Array.exists (fun f -> f = p.Paths.gates.(i - 1)) g.Circuit.fanin) then
          Alcotest.fail "disconnected path"
      done;
      (* delay equals the sum of gate delays *)
      let sum =
        Array.fold_left
          (fun acc id -> acc +. Design.gate_delay d id ~dvth:0.0 ~dl:0.0)
          0.0 p.Paths.gates
      in
      check_float ~eps:1e-9 "delay = sum" sum p.Paths.delay)
    paths

let test_paths_distinct () =
  let d = design () in
  let paths = Paths.k_most_critical d ~k:30 in
  let keys =
    List.map
      (fun (p : Paths.path) ->
        String.concat "," (Array.to_list (Array.map string_of_int p.Paths.gates)))
      paths
  in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_paths_exhaustive_on_chain () =
  (* an inverter chain has exactly one path *)
  let b = Circuit.Builder.create "chain" in
  ignore (Circuit.Builder.add_input b "a");
  ignore (Circuit.Builder.add_gate b "x" Cell_kind.Not [ "a" ]);
  ignore (Circuit.Builder.add_gate b "y" Cell_kind.Not [ "x" ]);
  Circuit.Builder.mark_output b "y";
  let d = design ~circuit:(Circuit.Builder.build b) () in
  Alcotest.(check int) "one path only" 1 (List.length (Paths.k_most_critical d ~k:10))

(* ---------- State_leak ---------- *)

let test_state_factor_stack_effect () =
  let full_stack = State_leak.state_factor Cell_kind.Nand [| false; false |] in
  let one_off = State_leak.state_factor Cell_kind.Nand [| true; false |] in
  let conducting = State_leak.state_factor Cell_kind.Nand [| true; true |] in
  Alcotest.(check bool)
    (Printf.sprintf "stack %.2f < one-off %.2f < conducting %.2f" full_stack one_off
       conducting)
    true
    (full_stack < one_off && one_off < conducting)

let test_state_factor_average_is_one () =
  List.iter
    (fun (kind, arity) ->
      let states = 1 lsl arity in
      let acc = ref 0.0 in
      for v = 0 to states - 1 do
        let ins = Array.init arity (fun i -> v land (1 lsl i) <> 0) in
        acc := !acc +. State_leak.state_factor kind ins
      done;
      check_float ~eps:1e-9
        (Printf.sprintf "%s/%d avg" (Cell_kind.to_string kind) arity)
        1.0
        (!acc /. float_of_int states))
    [
      (Cell_kind.Not, 1); (Cell_kind.Buf, 1); (Cell_kind.Nand, 2);
      (Cell_kind.Nor, 3); (Cell_kind.And, 2); (Cell_kind.Or, 4);
      (Cell_kind.Xor, 2); (Cell_kind.Xnor, 2);
    ]

let test_state_factor_nor_nand_duality () =
  check_float ~eps:1e-9 "duality"
    (State_leak.state_factor Cell_kind.Nand [| false; false |])
    (State_leak.state_factor Cell_kind.Nor [| true; true |])

let test_vector_leakage_varies () =
  let d = design ~circuit:(Benchmarks.c17 ()) () in
  let leaks =
    List.init 32 (fun v ->
        State_leak.total_for_vector d (Array.init 5 (fun i -> v land (1 lsl i) <> 0)))
  in
  let mn = List.fold_left Float.min infinity leaks in
  let mx = List.fold_left Float.max 0.0 leaks in
  Alcotest.(check bool)
    (Printf.sprintf "spread %.2fx" (mx /. mn))
    true
    (mx /. mn > 1.3);
  (* state-dependent totals bracket the state-blind nominal *)
  let nominal = Design.total_leak_nominal d in
  Alcotest.(check bool) "brackets nominal" true (mn < nominal && nominal < mx)

let test_ivc_finds_exhaustive_optimum_c17 () =
  let d = design ~circuit:(Benchmarks.c17 ()) () in
  let best_exhaustive =
    List.fold_left Float.min infinity
      (List.init 32 (fun v ->
           State_leak.total_for_vector d (Array.init 5 (fun i -> v land (1 lsl i) <> 0))))
  in
  let r = State_leak.Ivc.optimize ~seed:3 ~restarts:4 d in
  check_float ~eps:1e-9 "greedy = exhaustive on c17" best_exhaustive r.State_leak.Ivc.leak

let test_ivc_beats_average () =
  let d = design ~circuit:(Generators.alu 8) () in
  let s = State_leak.survey d ~seed:7 ~samples:100 in
  let r = State_leak.Ivc.optimize ~seed:3 d in
  Alcotest.(check bool)
    (Printf.sprintf "ivc %.3g < mean %.3g" r.State_leak.Ivc.leak s.Sl_util.Stats.mean)
    true
    (r.State_leak.Ivc.leak < s.Sl_util.Stats.mean);
  Alcotest.(check bool) "ivc <= observed min" true
    (r.State_leak.Ivc.leak <= s.Sl_util.Stats.min +. 1e-9)

let test_ivc_deterministic () =
  let d = design () in
  let r1 = State_leak.Ivc.optimize ~seed:5 d in
  let r2 = State_leak.Ivc.optimize ~seed:5 d in
  Alcotest.(check (array bool)) "same vector" r1.State_leak.Ivc.vector r2.State_leak.Ivc.vector

(* ---------- Path_ssta ---------- *)

let setup circuit =
  let d = Design.create ~size_idx:2 (Cell_lib.default ()) circuit in
  let m = Model.build Spec.default circuit in
  (d, m)

let test_path_ssta_converges_to_block () =
  let d, m = setup (Generators.ripple_adder 16) in
  let block = Ssta.analyze d m in
  let bm = block.Ssta.circuit_delay.Canonical.mean in
  let p10 = Path_ssta.analyze d m ~k:10 in
  let p200 = Path_ssta.analyze d m ~k:200 in
  let m10 = p10.Path_ssta.circuit_delay.Canonical.mean in
  let m200 = p200.Path_ssta.circuit_delay.Canonical.mean in
  Alcotest.(check bool) "monotone in K" true (m200 >= m10 -. 1e-9);
  (* the engines make opposite approximations (path-based: exact sums,
     truncated path set; block-based: every max re-linearized) — with 200
     paths they must agree within a couple of percent, in either direction *)
  Alcotest.(check bool)
    (Printf.sprintf "k=200 %.1f within 2%% of block %.1f" m200 bm)
    true
    (Float.abs (m200 -. bm) <= 0.02 *. bm)

let test_path_ssta_single_path_exact () =
  (* on a chain, path-based with k=1 is the exact sum — no max
     approximation at all — and block-based must agree *)
  let b = Circuit.Builder.create "chain" in
  ignore (Circuit.Builder.add_input b "a");
  let prev = ref "a" in
  for i = 0 to 9 do
    let net = Printf.sprintf "i%d" i in
    ignore (Circuit.Builder.add_gate b net Cell_kind.Not [ !prev ]);
    prev := net
  done;
  Circuit.Builder.mark_output b !prev;
  let d, m = setup (Circuit.Builder.build b) in
  let block = Ssta.analyze d m in
  let path = Path_ssta.analyze d m ~k:1 in
  check_float ~eps:1e-9 "means equal" block.Ssta.circuit_delay.Canonical.mean
    path.Path_ssta.circuit_delay.Canonical.mean;
  check_float ~eps:1e-9 "sigmas equal"
    (Canonical.sigma block.Ssta.circuit_delay)
    (Canonical.sigma path.Path_ssta.circuit_delay)

let test_path_ssta_yield_close_to_mc () =
  let d, m = setup (Generators.array_multiplier 6) in
  let res = Path_ssta.analyze d m ~k:100 in
  let mc = Sl_mc.Mc.run ~seed:9 ~samples:3000 d m in
  let tmax = 1.05 *. Sl_mc.Mc.delay_mean mc in
  let y_p = Path_ssta.timing_yield res ~tmax in
  let y_m = Sl_mc.Mc.timing_yield mc ~tmax in
  Alcotest.(check bool)
    (Printf.sprintf "path yield %.3f vs mc %.3f" y_p y_m)
    true
    (Float.abs (y_p -. y_m) < 0.08)

(* ---------- LHS sampling ---------- *)

let test_lhs_matches_naive_distribution () =
  let d, m = setup (Generators.ripple_adder 8) in
  let naive = Sl_mc.Mc.run ~seed:3 ~samples:2000 d m in
  let lhs = Sl_mc.Mc.run ~sampling:`Lhs ~seed:3 ~samples:2000 d m in
  (* same distribution: two-sample KS below the 1% threshold *)
  let ks = Ks.statistic_two_sample naive.Sl_mc.Mc.delay lhs.Sl_mc.Mc.delay in
  Alcotest.(check bool)
    (Printf.sprintf "KS %.4f acceptable" ks)
    true
    (ks < 1.628 *. sqrt (2.0 /. 2000.0))

let test_lhs_reduces_estimator_variance () =
  (* variance of the mean-delay estimator across repeated small runs *)
  let d, m = setup (Generators.ripple_adder 8) in
  let runs = 24 and n = 120 in
  let est sampling seed = Sl_mc.Mc.delay_mean (Sl_mc.Mc.run ~sampling ~seed ~samples:n d m) in
  let naive = Array.init runs (fun i -> est `Naive (100 + i)) in
  let lhs = Array.init runs (fun i -> est `Lhs (100 + i)) in
  let vn = Sl_util.Stats.variance naive and vl = Sl_util.Stats.variance lhs in
  Alcotest.(check bool)
    (Printf.sprintf "lhs var %.3g < naive var %.3g" vl vn)
    true (vl < vn)

(* ---------- ABB ---------- *)

let abb_setup () =
  let circuit = Generators.array_multiplier 8 in
  let d, m = setup circuit in
  let tmax = 1.08 *. Sta.dmax d in
  (d, m, tmax)

let test_abb_recovers_yield () =
  let d, m, tmax = abb_setup () in
  let cfg = Sl_mc.Abb.default_config ~tmax in
  let r = Sl_mc.Abb.tune ~seed:5 ~samples:800 cfg d m in
  Alcotest.(check bool)
    (Printf.sprintf "yield %.3f -> %.3f" r.Sl_mc.Abb.yield_before r.Sl_mc.Abb.yield_after)
    true
    (r.Sl_mc.Abb.yield_after > r.Sl_mc.Abb.yield_before
    && r.Sl_mc.Abb.yield_after > 0.99)

let test_abb_cuts_mean_leakage () =
  let d, m, tmax = abb_setup () in
  let cfg = Sl_mc.Abb.default_config ~tmax in
  let r = Sl_mc.Abb.tune ~seed:5 ~samples:800 cfg d m in
  let before = Sl_util.Stats.mean r.Sl_mc.Abb.leak_before in
  let after = Sl_util.Stats.mean r.Sl_mc.Abb.leak_after in
  Alcotest.(check bool)
    (Printf.sprintf "leak %.4g -> %.4g" before after)
    true (after < before)

let test_abb_bias_in_range_and_valid () =
  let d, m, tmax = abb_setup () in
  let cfg = Sl_mc.Abb.default_config ~tmax in
  let r = Sl_mc.Abb.tune ~seed:5 ~samples:300 cfg d m in
  Array.iter
    (fun b ->
      if b < cfg.Sl_mc.Abb.bias_min -. 1e-12 || b > cfg.Sl_mc.Abb.bias_max +. 1e-12 then
        Alcotest.failf "bias %g out of range" b)
    r.Sl_mc.Abb.bias;
  (* reverse-biased dies must leak less than they did unbiased *)
  Array.iteri
    (fun i b ->
      if b > 0.0 && r.Sl_mc.Abb.leak_after.(i) >= r.Sl_mc.Abb.leak_before.(i) then
        Alcotest.fail "reverse bias did not reduce leakage")
    r.Sl_mc.Abb.bias

let test_abb_deterministic () =
  let d, m, tmax = abb_setup () in
  let cfg = Sl_mc.Abb.default_config ~tmax in
  let r1 = Sl_mc.Abb.tune ~seed:9 ~samples:100 cfg d m in
  let r2 = Sl_mc.Abb.tune ~seed:9 ~samples:100 cfg d m in
  Alcotest.(check (array (float 0.0))) "same biases" r1.Sl_mc.Abb.bias r2.Sl_mc.Abb.bias

let test_abb_rejects_bad_config () =
  let d, m, tmax = abb_setup () in
  let cfg = { (Sl_mc.Abb.default_config ~tmax) with Sl_mc.Abb.bias_min = 0.2 } in
  match Sl_mc.Abb.tune ~seed:1 ~samples:10 cfg d m with
  | _ -> Alcotest.fail "empty bias range accepted"
  | exception Invalid_argument _ -> ()

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let drained = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (p, ()) ->
          drained := p :: !drained;
          drain ()
        | None -> ()
      in
      drain ();
      !drained = List.sort compare xs)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "peek" `Quick test_heap_peek;
      ]
      @ qc [ prop_heap_matches_sort ] );
    ( "util.ks",
      [
        Alcotest.test_case "gaussian fits" `Quick test_ks_gaussian_fits_gaussian;
        Alcotest.test_case "detects mismatch" `Quick test_ks_detects_mismatch;
        Alcotest.test_case "two sample" `Quick test_ks_two_sample;
      ] );
    ( "sta.paths",
      [
        Alcotest.test_case "first is critical path" `Quick test_paths_first_is_critical_path;
        Alcotest.test_case "sorted and valid" `Quick test_paths_sorted_and_valid;
        Alcotest.test_case "distinct" `Quick test_paths_distinct;
        Alcotest.test_case "exhaustive on chain" `Quick test_paths_exhaustive_on_chain;
      ] );
    ( "leakage.state",
      [
        Alcotest.test_case "stack effect ordering" `Quick test_state_factor_stack_effect;
        Alcotest.test_case "average is one" `Quick test_state_factor_average_is_one;
        Alcotest.test_case "nand/nor duality" `Quick test_state_factor_nor_nand_duality;
        Alcotest.test_case "vector leakage varies" `Quick test_vector_leakage_varies;
        Alcotest.test_case "ivc exhaustive on c17" `Quick test_ivc_finds_exhaustive_optimum_c17;
        Alcotest.test_case "ivc beats average" `Quick test_ivc_beats_average;
        Alcotest.test_case "ivc deterministic" `Quick test_ivc_deterministic;
      ] );
    ( "mc.lhs",
      [
        Alcotest.test_case "matches naive distribution" `Quick test_lhs_matches_naive_distribution;
        Alcotest.test_case "reduces estimator variance" `Slow test_lhs_reduces_estimator_variance;
      ] );
    ( "mc.abb",
      [
        Alcotest.test_case "recovers yield" `Quick test_abb_recovers_yield;
        Alcotest.test_case "cuts mean leakage" `Quick test_abb_cuts_mean_leakage;
        Alcotest.test_case "bias in range" `Quick test_abb_bias_in_range_and_valid;
        Alcotest.test_case "deterministic" `Quick test_abb_deterministic;
        Alcotest.test_case "rejects bad config" `Quick test_abb_rejects_bad_config;
      ] );
    ( "ssta.path_based",
      [
        Alcotest.test_case "converges to block" `Quick test_path_ssta_converges_to_block;
        Alcotest.test_case "single path exact" `Quick test_path_ssta_single_path_exact;
        Alcotest.test_case "yield close to mc" `Slow test_path_ssta_yield_close_to_mc;
      ] );
  ]
