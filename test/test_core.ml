module Setup = Statleak.Setup
module Evaluate = Statleak.Evaluate
module Report = Statleak.Report
module Experiments = Statleak.Experiments
module Design = Sl_tech.Design
module Spec = Sl_variation.Spec

let check_float ?(eps = 1e-9) msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Setup ---------- *)

let test_setup_of_benchmark () =
  let s = Setup.of_benchmark "add32" in
  Alcotest.(check string) "name" "add32" s.Setup.name;
  Alcotest.(check bool) "positive d0" true (s.Setup.d0 > 0.0);
  check_float ~eps:1e-12 "tmax scaling" (1.25 *. s.Setup.d0) (Setup.tmax s ~factor:1.25)

let test_setup_unknown_benchmark () =
  match Setup.of_benchmark "nope" with
  | _ -> Alcotest.fail "unknown accepted"
  | exception Invalid_argument _ -> ()

let test_setup_fresh_designs_independent () =
  let s = Setup.of_benchmark "c17" in
  let d1 = Setup.fresh_design s in
  let d2 = Setup.fresh_design s in
  Design.set_vth d1 s.Setup.circuit.Sl_netlist.Circuit.outputs.(0) 1;
  Alcotest.(check int) "d2 unaffected" 0 (Design.count_high_vth d2)

let test_setup_base_size_applied () =
  let s0 = Setup.of_benchmark ~base_size_idx:0 "c17" in
  let s2 = Setup.of_benchmark ~base_size_idx:2 "c17" in
  Alcotest.(check bool) "larger base is faster" true (s2.Setup.d0 < s0.Setup.d0)

(* ---------- Evaluate ---------- *)

let test_evaluate_consistency () =
  let s = Setup.of_benchmark "add32" in
  let tmax = Setup.tmax s ~factor:1.10 in
  let d = Setup.fresh_design s in
  let m = Evaluate.design ~mc_samples:1000 s ~tmax d in
  Alcotest.(check bool) "mean leak > nominal" true
    (m.Evaluate.leak_mean > m.Evaluate.leak_nominal);
  Alcotest.(check bool) "p99 > p95" true (m.Evaluate.leak_p99 > m.Evaluate.leak_p95);
  Alcotest.(check bool) "yield in [0,1]" true
    (m.Evaluate.yield_ssta >= 0.0 && m.Evaluate.yield_ssta <= 1.0);
  (match m.Evaluate.yield_mc with
  | Some y -> Alcotest.(check bool) "mc close to ssta" true (Float.abs (y -. m.Evaluate.yield_ssta) < 0.05)
  | None -> Alcotest.fail "mc requested but missing");
  Alcotest.(check bool) "high-vth zero initially" true (m.Evaluate.high_vth_frac = 0.0)

let test_evaluate_no_mc_by_default () =
  let s = Setup.of_benchmark "c17" in
  let m = Evaluate.design s ~tmax:(Setup.tmax s ~factor:1.2) (Setup.fresh_design s) in
  Alcotest.(check bool) "no mc" true (m.Evaluate.yield_mc = None)

let test_evaluate_fidelity_gauges () =
  (* an MC-verified evaluation publishes how far SSTA and Wilkinson sit
     from MC, readable back from the registry snapshot *)
  let module Metrics = Sl_obs.Metrics in
  let s = Setup.of_benchmark "c17" in
  let m =
    Evaluate.design ~mc_samples:600 s ~tmax:(Setup.tmax s ~factor:1.2)
      (Setup.fresh_design s)
  in
  let read name =
    match
      List.find_opt
        (fun (x : Metrics.sample) ->
          x.Metrics.name = name && x.Metrics.labels = [ ("circuit", "c17") ])
        (Metrics.snapshot ())
    with
    | Some x -> x.Metrics.value
    | None -> Alcotest.failf "%s{circuit=c17} not in the snapshot" name
  in
  let mc = Option.get in
  check_float "yield gap"
    (Float.abs (m.Evaluate.yield_ssta -. mc m.Evaluate.yield_mc))
    (read "statleak_fidelity_yield_gap");
  check_float "leak mean error"
    (Float.abs (m.Evaluate.leak_mean -. mc m.Evaluate.leak_mc_mean)
    /. mc m.Evaluate.leak_mc_mean)
    (read "statleak_fidelity_leak_mean_rel_error");
  check_float "leak p99 error"
    (Float.abs (m.Evaluate.leak_p99 -. mc m.Evaluate.leak_mc_p99)
    /. mc m.Evaluate.leak_mc_p99)
    (read "statleak_fidelity_leak_p99_rel_error");
  (* the Wilkinson fit tracks MC on c17 to well within 10% *)
  Alcotest.(check bool) "mean error small" true
    (read "statleak_fidelity_leak_mean_rel_error" < 0.1)

let test_improvement () =
  check_float "half is 50%" 50.0 (Evaluate.improvement 10.0 5.0);
  check_float "worse is negative" (-50.0) (Evaluate.improvement 10.0 15.0)

(* ---------- Report ---------- *)

let test_table_aligned () =
  let t = Report.table ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ] in
  let lines = String.split_on_char '\n' t in
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "rule dashes" true (String.contains rule '-');
    Alcotest.(check bool) "header contains a" true (String.length header > 0)
  | _ -> Alcotest.fail "too few lines");
  (* all non-empty lines same width *)
  let widths =
    List.filter_map
      (fun l -> if String.trim l = "" then None else Some (String.length l))
      lines
  in
  match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check bool) "aligned" true (abs (w - w') <= 3)) rest
  | [] -> Alcotest.fail "empty table"

let test_table_rejects_ragged () =
  match Report.table ~header:[ "a"; "b" ] [ [ "only-one" ] ] with
  | _ -> Alcotest.fail "ragged accepted"
  | exception Invalid_argument _ -> ()

let test_series_format () =
  let s = Report.series ~title:"t" ~cols:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = '#');
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "2 comments + 2 rows" 4 (List.length lines)

let test_formatters () =
  Alcotest.(check string) "ua" "1.50" (Report.ua 1500.0);
  Alcotest.(check string) "pct positive" "+12.5%" (Report.pct 12.5);
  Alcotest.(check string) "pct negative" "-3.0%" (Report.pct (-3.0));
  Alcotest.(check string) "opt none" "-" (Report.opt Report.f1 None);
  Alcotest.(check string) "opt some" "2.0" (Report.opt Report.f1 (Some 2.0))

(* ---------- Experiments (quick smoke) ---------- *)

let test_experiments_quick_all () =
  let outputs, times = Experiments.all_timed ~quick:true () in
  Alcotest.(check int) "28 experiments" 28 (List.length outputs);
  let ids = List.map (fun (o : Experiments.output) -> o.Experiments.id) outputs in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "F1"; "F2"; "F3"; "F4"; "F5"; "F6"; "A1"; "A2"; "A3"; "A4"; "A5"; "A6"; "A7"; "A8"; "A9"; "A10"; "A11"; "A12"; "A13"; "A14"; "F7"; "A15" ];
  (* T2/T3 and F2/F4 share one optimization run, hence one timing entry *)
  Alcotest.(check int) "26 timing groups" 26 (List.length times);
  List.iter
    (fun (group, secs) ->
      Alcotest.(check bool) (group ^ " time finite") true
        (Float.is_finite secs && secs >= 0.0))
    times;
  List.iter
    (fun (o : Experiments.output) ->
      Alcotest.(check bool)
        (o.Experiments.id ^ " nonempty")
        true
        (String.length o.Experiments.body > 10))
    outputs

let test_t1_row_count () =
  let o = Experiments.t1 ~names:[ "c17"; "add32"; "mult8" ] () in
  let lines =
    String.split_on_char '\n' (String.trim o.Experiments.body)
  in
  (* header + rule + 3 rows *)
  Alcotest.(check int) "rows" 5 (List.length lines)

let test_headline_improvement_positive () =
  (* on add32 the statistical optimizer must beat the corner flow *)
  let t2, _ = Experiments.headline ~names:[ "add32" ] ~mc_samples:0 () in
  Alcotest.(check bool) "improvement reported" true
    (let s = t2.Experiments.body in
     (* last data line contains a positive improvement percentage *)
     let has_plus = String.contains s '+' in
     has_plus)

let suite =
  [
    ( "core.setup",
      [
        Alcotest.test_case "of_benchmark" `Quick test_setup_of_benchmark;
        Alcotest.test_case "unknown benchmark" `Quick test_setup_unknown_benchmark;
        Alcotest.test_case "fresh designs independent" `Quick test_setup_fresh_designs_independent;
        Alcotest.test_case "base size applied" `Quick test_setup_base_size_applied;
      ] );
    ( "core.evaluate",
      [
        Alcotest.test_case "consistency" `Quick test_evaluate_consistency;
        Alcotest.test_case "no mc by default" `Quick test_evaluate_no_mc_by_default;
        Alcotest.test_case "fidelity gauges" `Quick test_evaluate_fidelity_gauges;
        Alcotest.test_case "improvement" `Quick test_improvement;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "table aligned" `Quick test_table_aligned;
        Alcotest.test_case "table rejects ragged" `Quick test_table_rejects_ragged;
        Alcotest.test_case "series format" `Quick test_series_format;
        Alcotest.test_case "formatters" `Quick test_formatters;
      ] );
    ( "core.experiments",
      [
        Alcotest.test_case "quick all" `Slow test_experiments_quick_all;
        Alcotest.test_case "t1 rows" `Quick test_t1_row_count;
        Alcotest.test_case "headline improvement" `Slow test_headline_improvement_positive;
      ] );
  ]
