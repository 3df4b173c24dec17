module Mc = Sl_mc.Mc
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Circuit = Sl_netlist.Circuit
module Benchmarks = Sl_netlist.Benchmarks
module Generators = Sl_netlist.Generators
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Sta = Sl_sta.Sta
module Abb = Sl_mc.Abb
module Rng = Sl_util.Rng

let setup circuit =
  let d = Design.create (Cell_lib.default ()) circuit in
  let m = Model.build Spec.default circuit in
  (d, m)

let test_deterministic_in_seed () =
  let d, m = setup (Benchmarks.c17 ()) in
  let r1 = Mc.run ~seed:3 ~samples:200 d m in
  let r2 = Mc.run ~seed:3 ~samples:200 d m in
  Alcotest.(check (array (float 0.0))) "same delays" r1.Mc.delay r2.Mc.delay;
  Alcotest.(check (array (float 0.0))) "same leaks" r1.Mc.leak r2.Mc.leak;
  let r3 = Mc.run ~seed:4 ~samples:200 d m in
  Alcotest.(check bool) "different seed differs" true (r1.Mc.delay <> r3.Mc.delay)

let test_all_positive () =
  let d, m = setup (Generators.ripple_adder 8) in
  let r = Mc.run ~seed:5 ~samples:500 d m in
  Alcotest.(check bool) "delays positive" true (Array.for_all (fun x -> x > 0.0) r.Mc.delay);
  Alcotest.(check bool) "leaks positive" true (Array.for_all (fun x -> x > 0.0) r.Mc.leak)

let test_yield_boundaries () =
  let d, m = setup (Benchmarks.c17 ()) in
  let r = Mc.run ~seed:7 ~samples:500 d m in
  Alcotest.(check (float 1e-12)) "yield 1 at huge tmax" 1.0 (Mc.timing_yield r ~tmax:1e9);
  Alcotest.(check (float 1e-12)) "yield 0 at tiny tmax" 0.0 (Mc.timing_yield r ~tmax:0.01)

let test_yield_interpolates () =
  let d, m = setup (Generators.ripple_adder 16) in
  let r = Mc.run ~seed:9 ~samples:2000 d m in
  let median = Mc.delay_quantile r 0.5 in
  let y = Mc.timing_yield r ~tmax:median in
  Alcotest.(check bool) "yield at median ~ 0.5" true (y > 0.45 && y < 0.55)

let test_sample_leak_matches_evaluator () =
  (* the compiled per-die leak evaluator must agree with the direct
     per-gate model evaluation, on the die and on a shifted ΔVth *)
  let d, m = setup (Benchmarks.c17 ()) in
  let rng = Sl_util.Rng.create 13 in
  let ev = Mc.Eval.create d m in
  let s = Mc.Eval.die ev in
  for _ = 1 to 20 do
    Mc.Eval.draw ev rng;
    List.iter
      (fun bias ->
        let dvth = Array.map (fun x -> x +. bias) s.Model.Sample.dvth in
        let manual = ref 0.0 in
        for id = 0 to Circuit.num_gates d.Design.circuit - 1 do
          if (Circuit.gate d.Design.circuit id).Circuit.kind <> Sl_netlist.Cell_kind.Pi
          then
            manual :=
              !manual +. Design.gate_leak d id ~dvth:dvth.(id) ~dl:s.Model.Sample.dl.(id)
        done;
        let fast = Mc.Eval.leak ev ~dvth in
        if Float.abs (fast -. !manual) > 1e-9 *. !manual then
          Alcotest.failf "evaluator leak %.6g vs manual %.6g" fast !manual)
      [ 0.0; 0.03 ]
  done

let test_delay_sample_consistency () =
  (* delays produced by run must match a direct STA on the same dies *)
  let d, m = setup (Benchmarks.c17 ()) in
  let r = Mc.run ~seed:21 ~samples:50 d m in
  (* regenerate the same dies with the same seed *)
  let rng = Sl_util.Rng.create 21 in
  for i = 0 to 49 do
    let s = Model.Sample.draw m rng in
    let dmax = Sta.dmax ~dvth:s.Model.Sample.dvth ~dl:s.Model.Sample.dl d in
    if Float.abs (dmax -. r.Mc.delay.(i)) > 1e-9 *. dmax then
      Alcotest.failf "sample %d: %.6g vs %.6g" i dmax r.Mc.delay.(i)
  done

let test_variation_increases_spread () =
  let c = Generators.ripple_adder 8 in
  let d = Design.create (Cell_lib.default ()) c in
  let m_small = Model.build (Spec.scaled 0.5) c in
  let m_big = Model.build (Spec.scaled 2.0) c in
  let r_small = Mc.run ~seed:31 ~samples:1500 d m_small in
  let r_big = Mc.run ~seed:31 ~samples:1500 d m_big in
  Alcotest.(check bool) "delay spread grows" true (Mc.delay_std r_big > Mc.delay_std r_small);
  Alcotest.(check bool) "leak spread grows" true (Mc.leak_std r_big > Mc.leak_std r_small);
  Alcotest.(check bool) "leak mean grows" true (Mc.leak_mean r_big > Mc.leak_mean r_small)

let test_joint_yield () =
  let d, m = setup (Generators.ripple_adder 16) in
  let r = Mc.run ~seed:41 ~samples:2000 d m in
  let tmax = Mc.delay_quantile r 0.9 in
  (* unconstrained power cap reduces to timing yield *)
  Alcotest.(check (float 1e-9)) "cap=inf is timing yield"
    (Mc.timing_yield r ~tmax)
    (Mc.joint_yield r ~tmax ~lmax:infinity);
  (* joint yield is monotone in the cap and below the marginals *)
  let lmed = Mc.leak_quantile r 0.5 in
  let y_tight = Mc.joint_yield r ~tmax ~lmax:(0.5 *. lmed) in
  let y_med = Mc.joint_yield r ~tmax ~lmax:lmed in
  Alcotest.(check bool) "monotone in cap" true (y_tight <= y_med);
  Alcotest.(check bool) "below timing marginal" true
    (y_med <= Mc.timing_yield r ~tmax);
  (* fast dies leak: delay/leak anti-correlation makes the joint yield
     strictly below the independence product *)
  let p_leak = float_of_int (Array.fold_left (fun a l -> if l <= lmed then a + 1 else a) 0 r.Mc.leak)
               /. float_of_int (Array.length r.Mc.leak) in
  Alcotest.(check bool)
    (Printf.sprintf "joint %.3f < product %.3f" y_med (Mc.timing_yield r ~tmax *. p_leak))
    true
    (y_med < (Mc.timing_yield r ~tmax *. p_leak) +. 0.02)

let test_empty_result_rejected () =
  (* regression: yields on an empty result used to divide by zero and
     return NaN; they must raise like Stats.mean does *)
  let empty = { Mc.delay = [||]; Mc.leak = [||] } in
  (match Mc.timing_yield empty ~tmax:100.0 with
  | _ -> Alcotest.fail "timing_yield on empty result accepted"
  | exception Invalid_argument _ -> ());
  match Mc.joint_yield empty ~tmax:100.0 ~lmax:1.0 with
  | _ -> Alcotest.fail "joint_yield on empty result accepted"
  | exception Invalid_argument _ -> ()

let test_rejects_zero_samples () =
  let d, m = setup (Benchmarks.c17 ()) in
  match Mc.run ~seed:1 ~samples:0 d m with
  | _ -> Alcotest.fail "0 samples accepted"
  | exception Invalid_argument _ -> ()

let test_rejects_zero_jobs () =
  let d, m = setup (Benchmarks.c17 ()) in
  match Mc.run ~jobs:0 ~seed:1 ~samples:10 d m with
  | _ -> Alcotest.fail "0 jobs accepted"
  | exception Invalid_argument _ -> ()

(* [f] run as each of two simultaneous tasks of a serve-style pool of
   two workers: both workers are busy, so a parallel run inside a task
   finds no idle helper *)
let in_serve_pool f =
  let module Pool = Sl_util.Parallel.Pool in
  let pool = Pool.create ~jobs:2 () in
  let results = Array.make 2 None in
  Array.iteri
    (fun k _ ->
      Pool.submit pool (fun () ->
          results.(k) <- Some (try Ok (f ()) with e -> Error e)))
    results;
  Pool.shutdown pool;
  Array.map
    (function
      | Some (Ok r) -> r
      | Some (Error e) -> raise e
      | None -> Alcotest.fail "pool task did not run")
    results

let test_jobs_invariant () =
  (* the chunked RNG-stream scheme: any worker count produces the same
     dies in the same slots, bit for bit — 700 samples spans three chunks
     so the test crosses chunk boundaries *)
  let d, m = setup (Generators.ripple_adder 16) in
  List.iter
    (fun (tag, sampling) ->
      let base = Mc.run ~sampling ~jobs:1 ~seed:11 ~samples:700 d m in
      let run jobs () = Mc.run ~sampling ~jobs ~seed:11 ~samples:700 d m in
      List.iter
        (fun (how, rs) ->
          Array.iter
            (fun (r : Mc.result) ->
              Alcotest.(check (array (float 0.0)))
                (Printf.sprintf "%s delays %s" tag how)
                base.Mc.delay r.Mc.delay;
              Alcotest.(check (array (float 0.0)))
                (Printf.sprintf "%s leaks %s" tag how)
                base.Mc.leak r.Mc.leak)
            rs)
        [
          ("jobs=2", [| run 2 () |]);
          ("jobs=4", [| run 4 () |]);
          ("jobs=2 in a serve pool task", in_serve_pool (run 2));
        ])
    [ ("naive", `Naive); ("lhs", `Lhs) ]

(* ---------- bit pins ---------- *)

(* Digest of every word of the given arrays.  A die must draw the same
   RNG words and run the same float operations in the same order, so
   these digests never move when the die kernel is reworked. *)
let bits_digest arrays =
  let b = Buffer.create 4096 in
  List.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let bench_setup ?(spec = Spec.default) name =
  match Benchmarks.by_name name with
  | Some c -> (Design.create (Cell_lib.default ()) c, Model.build spec c)
  | None -> Alcotest.failf "unknown benchmark %s" name

let test_run_bit_pins () =
  (* 600 dies: two full chunks and a partial third; the 3-level quadtree
     leaves 35 of its 64 cells without an add32 gate *)
  let quadtree = Spec.quadtree ~levels:3 () in
  List.iter
    (fun (name, spec, (tag, sampling), expected) ->
      let d, m = bench_setup ~spec name in
      let r = Mc.run ~sampling ~jobs:2 ~seed:42 ~samples:600 d m in
      Alcotest.(check string) (name ^ " " ^ tag) expected
        (bits_digest [ r.Mc.delay; r.Mc.leak ]))
    [
      ("c17", Spec.default, ("naive", `Naive), "d6d91cebb0ed09cf40bd8535de8f22ff");
      ("c17", Spec.default, ("lhs", `Lhs), "e019803a324ed22e10b68661f429066f");
      ("add32", Spec.default, ("naive", `Naive), "d4211d82afd056a5963be93879f4e3d1");
      ("add32", Spec.default, ("lhs", `Lhs), "84e2ed5bc917adee95a8eed30fd4ae28");
      ("mult8", Spec.default, ("naive", `Naive), "dc504807430281462af98a17c79e65c2");
      ("mult8", Spec.default, ("lhs", `Lhs), "8f6cf9190e6bf9baa353182fd1efd257");
      ("add32", quadtree, ("quadtree naive", `Naive), "b113f52cbc4e82c9cb8831f63602a4ac");
      ("add32", quadtree, ("quadtree lhs", `Lhs), "64ca017743b8314a7cbdab63936d7bb6");
    ]

let test_run_dies_bit_pins () =
  let d, m = bench_setup "add32" in
  let dims = Model.num_pcs m in
  let digest dies =
    bits_digest
      (List.concat_map
         (fun (x : Mc.die) -> [ x.Mc.z; [| x.Mc.delay; x.Mc.leak |] ])
         (Array.to_list dies))
  in
  let shift = Array.init dims (fun k -> 0.05 *. float_of_int ((k mod 7) - 3)) in
  let table = Mc.lhs_z_table (Rng.create 7) ~samples:600 ~dims in
  Alcotest.(check string) "shift" "eea9fb920f8c9e89a94fe5af207089d4"
    (digest (Mc.run_dies ~jobs:2 ~shift ~seed:42 ~first:256 ~count:600 d m));
  Alcotest.(check string) "z_of" "fa2a4413affa95709d023933c0c9a9d4"
    (digest
       (Mc.run_dies ~jobs:2
          ~z_of:(fun i -> table.(i - 256))
          ~seed:42 ~first:256 ~count:600 d m))

let test_abb_bit_pins () =
  let d, m = bench_setup "add32" in
  let cfg = Abb.default_config ~tmax:(1.08 *. Sta.dmax d) in
  List.iter
    (fun (tag, sampling, expected) ->
      let r = Abb.tune ~sampling ~seed:42 ~samples:200 cfg d m in
      Alcotest.(check string) tag expected
        (bits_digest
           [
             [| r.Abb.yield_before; r.Abb.yield_after |];
             r.Abb.leak_before;
             r.Abb.leak_after;
             r.Abb.bias;
           ]))
    [
      ("naive", `Naive, "8cebb3928234e15544fe9e8dcbf18506");
      ("lhs", `Lhs, "410d8fb70a7247796fae237804d1840e");
    ]

(* Machine-independent guard on the die kernel: at jobs=1 a die boxes no
   float per gate (its deviates come from one bulk draw, its arrivals are
   stored unboxed), so what remains is per-die and per-run overhead, well
   under a word per gate; never its own per-gate arrays or a box per
   generator word.  Counted with [Gc.allocated_bytes], which includes the
   direct major-heap allocations that per-gate arrays over 256 words are;
   a minor collection at both ends settles the promotion accounting, so
   the count is exact rather than off by what the last collection
   promoted. *)
let test_die_allocation_budget () =
  let words_of f =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    (r, (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8))
  in
  List.iter
    (fun name ->
      let d, m = bench_setup name in
      let gates = float_of_int (Circuit.num_gates d.Design.circuit) in
      let check tag dies words =
        let per = words /. (gates *. float_of_int dies) in
        if per > 1.0 then
          Alcotest.failf "%s %s: %.2f words per gate per die (budget 1)" name tag per
      in
      let _, w = words_of (fun () -> Mc.run ~jobs:1 ~seed:3 ~samples:1024 d m) in
      check "Mc.run" 1024 w;
      let tmax = Sl_ssta.Ssta.tmax_for_yield (Sl_ssta.Ssta.analyze d m) ~p:0.95 in
      let e, w =
        words_of (fun () ->
            Sl_yield.Seq.estimate ~jobs:1 ~method_:Sl_yield.Seq.Is_cv ~max_samples:2048
              ~target_halfwidth:0.0 ~seed:3 ~tmax d m)
      in
      check "IS+CV Seq.estimate" e.Sl_yield.Estimate.samples_used w)
    [ "add32"; "mult8"; "alu32" ]

let suite =
  [
    ( "mc",
      [
        Alcotest.test_case "deterministic in seed" `Quick test_deterministic_in_seed;
        Alcotest.test_case "all positive" `Quick test_all_positive;
        Alcotest.test_case "yield boundaries" `Quick test_yield_boundaries;
        Alcotest.test_case "yield interpolates" `Quick test_yield_interpolates;
        Alcotest.test_case "sample leak evaluator" `Quick test_sample_leak_matches_evaluator;
        Alcotest.test_case "delay sample consistency" `Quick test_delay_sample_consistency;
        Alcotest.test_case "variation increases spread" `Slow test_variation_increases_spread;
        Alcotest.test_case "joint yield" `Quick test_joint_yield;
        Alcotest.test_case "empty result rejected" `Quick test_empty_result_rejected;
        Alcotest.test_case "rejects zero samples" `Quick test_rejects_zero_samples;
        Alcotest.test_case "rejects zero jobs" `Quick test_rejects_zero_jobs;
        Alcotest.test_case "bit-identical across jobs" `Quick test_jobs_invariant;
        Alcotest.test_case "run bit pins" `Quick test_run_bit_pins;
        Alcotest.test_case "run_dies bit pins" `Quick test_run_dies_bit_pins;
        Alcotest.test_case "abb bit pins" `Quick test_abb_bit_pins;
        Alcotest.test_case "allocation per gate per die" `Quick
          test_die_allocation_budget;
      ] );
  ]
