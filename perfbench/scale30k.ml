(* scale-30k: the large-circuit path, where full-sweep SSTA kernels,
   model build, memo fill and the hierarchical engine do the work and
   Monte Carlo does none.

   - a seeded 30k-gate random DAG (the rand30k shape): repeated
     from-scratch Ssta.analyze + backward + Leak_ssta.create;
   - the spipe30k register pipeline (10 stages x 128 wide x 24 layers):
     flat Ssta.analyze against Hier.analyze over its register cones;
   - a 6k-gate pipeline (6 x 64 x 16): batch optimize in partition mode,
     the path behind the "hier optimize slower than flat" finding. *)

open Harness
module Setup = Statleak.Setup
module Circuit = Sl_netlist.Circuit
module Generators = Sl_netlist.Generators
module Bench_format = Sl_netlist.Bench_format
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Ssta = Sl_ssta.Ssta
module Hier = Sl_ssta.Hier
module Leak_ssta = Sl_leakage.Leak_ssta
module Batch_opt = Sl_opt.Batch_opt

let factor = 1.25
let eta = 0.95
let analyze_reps = 3

type state = {
  dag : Setup.t;
  dag_memo : Memo.t;
  pipe : Setup.t;
  pipe_memo : Memo.t;
  small : Setup.t;
}

let pipeline ~name ~stages ~width ~layers () =
  Bench_format.parse_string ~sequential:`Cut ~name
    (Generators.seq_pipeline_bench ~stages ~width ~layers)

(* A frozen memo prefilled for the design: what the analyze calls below
   read, and the only memo state Hier.analyze may share across cones. *)
let frozen_memo (s : Setup.t) =
  let m = Memo.create s.Setup.lib in
  timed "tech.memo_prefill" (fun () ->
      Memo.prefill m (Setup.fresh_design s);
      Memo.freeze m);
  m

let setup seed () =
  let mk gen = make_setup (timed "netlist.build" gen) in
  let dag =
    mk (fun () ->
        Generators.random_dag_named ~name:(Printf.sprintf "dag30k-%d" seed) ~seed ~gates:30_000
          ~inputs:256 ~outputs:64)
  in
  let pipe = mk (pipeline ~name:"spipe30k" ~stages:10 ~width:128 ~layers:24) in
  let small = mk (pipeline ~name:"spipe6k" ~stages:6 ~width:64 ~layers:16) in
  List.iter
    (fun (s : Setup.t) ->
      let p = timed "netlist.partition" (fun () -> Circuit.partition_at_registers s.Setup.circuit) in
      check (s.Setup.name ^ " partitions at its registers") (Option.is_some p))
    [ pipe; small ];
  { dag; dag_memo = frozen_memo dag; pipe; pipe_memo = frozen_memo pipe; small }

type totals = { mutable init_leak : float; mutable opt_leak : float; mutable props_per_move : float }

let flow t st _ =
  let before = registry_counts () in
  (* flat analyze + backward + leakage on the 30k DAG, repeated: every
     repetition must reproduce the first bit for bit *)
  let d = Setup.fresh_design st.dag in
  for _ = 1 to analyze_reps do
    let res, bwd, leak =
      timed "ssta.dag_analyze_rep" (fun () ->
          let res =
            timed "ssta.analyze" (fun () -> Ssta.analyze ~memo:st.dag_memo d st.dag.Setup.model)
          in
          let bwd = timed "ssta.backward" (fun () -> Ssta.backward st.dag.Setup.circuit res) in
          (res, bwd, timed "leakage.create" (fun () -> Leak_ssta.create d st.dag.Setup.model)))
    in
    check_repeat "dag30k analyze digest"
      (Printf.sprintf "%Lx/%Lx/%Lx/%h" (canon_digest res.Ssta.arrival) (canon_digest bwd)
         (canon_digest [| res.Ssta.circuit_delay |])
         (Leak_ssta.mean leak))
  done;
  (* flat vs hierarchical analysis of the 30k pipeline: bit-identical *)
  let dp = Setup.fresh_design st.pipe in
  let model = st.pipe.Setup.model in
  let flat = timed "ssta.pipe_flat_analyze" (fun () -> Ssta.analyze ~memo:st.pipe_memo dp model) in
  let hier = timed "ssta.hier_analyze" (fun () -> Hier.analyze ~memo:st.pipe_memo ~jobs dp model) in
  let digest (r : Ssta.result) =
    (canon_digest r.Ssta.arrival, canon_digest [| r.Ssta.circuit_delay |])
  in
  check "spipe30k hier analyze bit-identical to flat"
    (match hier with Some h -> digest h = digest flat | None -> false);
  (* partition-mode batch optimize on the 6k pipeline *)
  let s = st.small in
  let tmax = Setup.tmax s ~factor in
  let ds = Setup.fresh_design s in
  let init_leak = Leak_ssta.mean (timed "leakage.create" (fun () -> Leak_ssta.create ds s.Setup.model)) in
  let bt =
    timed "opt.batch_optimize" (fun () ->
        Batch_opt.optimize
          { (Batch_opt.default_config ~tmax ~eta) with Batch_opt.partition = true; jobs }
          ds s.Setup.model)
  in
  check "spipe6k partition batch optimize feasible" bt.Batch_opt.feasible;
  let opt_leak = Leak_ssta.mean (timed "leakage.create" (fun () -> Leak_ssta.create ds s.Setup.model)) in
  check_repeat "spipe6k optimized design"
    (Printf.sprintf "%s/%h" (Design.assignment_digest ds) opt_leak);
  t.init_leak <- init_leak;
  t.opt_leak <- opt_leak;
  t.props_per_move <- bt.Batch_opt.props_per_move;
  counts_delta before (registry_counts ())

let run ~seed ~seconds ~trace =
  let t = { init_leak = 0.0; opt_leak = 0.0; props_per_move = 0.0 } in
  let r = measure ~trace ~seconds ~setup_reps:2 ~setup:(setup seed) ~flow:(flow t) () in
  (* one repetition = analyze + backward + leakage on the DAG; the
     median over every repetition of every untraced iteration *)
  let analyze_s = median (call_seconds "ssta.dag_analyze_rep" (phases (untraced r))) in
  let headline =
    [
      metric "analyze_s" "s" analyze_s;
      metric "hier_analyze_s" "s" (per_iter r "ssta.hier_analyze");
      metric "pipe_flat_analyze_s" "s" (per_iter r "ssta.pipe_flat_analyze");
      metric "batch_optimize_s" "s" (per_iter r "opt.batch_optimize");
      metric "batch_leak_reduction_pct" "%" (pct (t.init_leak -. t.opt_leak) t.init_leak);
    ]
  in
  (r, headline, [ ("opt.props_per_move", t.props_per_move) ])
