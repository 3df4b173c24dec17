(* The incremental SSTA engine (Sl_ssta.Hier): register cones
   bit-identical to the flat pipeline for every jobs value, checkpoint
   semantics, and one cone on netlists that do not decompose.

   The contract under test is exact: partitions share no gates and local
   ids are a monotone remap of global ids, so every canonical form the
   hier engine stores must equal — to the IEEE bit — what the flat
   Ssta/Incremental pipeline computes on the whole design. *)

module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Bench_format = Sl_netlist.Bench_format
module Generators = Sl_netlist.Generators
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Memo = Sl_tech.Memo
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Incremental = Sl_ssta.Incremental
module Hier = Sl_ssta.Hier
module Rng = Sl_util.Rng
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Leak_ssta = Sl_leakage.Leak_ssta

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ceq (a : Canonical.t) (b : Canonical.t) =
  feq a.Canonical.mean b.Canonical.mean
  && feq a.Canonical.rnd b.Canonical.rnd
  && Array.length a.Canonical.coeffs = Array.length b.Canonical.coeffs
  && Array.for_all2 feq a.Canonical.coeffs b.Canonical.coeffs

let pipeline ?(stages = 2) ?(width = 6) ?(layers = 3) () =
  Bench_format.parse_string ~sequential:`Cut ~name:"hpipe"
    (Generators.seq_pipeline_bench ~stages ~width ~layers)

let design c = Design.create ~size_idx:2 (Cell_lib.default ()) c

let cells (d : Design.t) =
  Array.to_list d.Design.circuit.Circuit.gates
  |> List.filter_map (fun (g : Circuit.gate) ->
         if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.id)
  |> Array.of_list

(* The pipeline's register cones; fails if the cut is declined. *)
let cones ?jobs d model ~tmax =
  let h = Hier.create ~partition:true ?jobs d model ~tmax in
  if Hier.num_partitions h < 2 then Alcotest.fail "pipeline did not partition";
  h

(* What a from-scratch analysis computes for the current design. *)
let reference d model ~tmax =
  let res = Ssta.analyze d model in
  let bwd = Ssta.backward d.Design.circuit res in
  let n = Circuit.num_gates d.Design.circuit in
  let mu = Array.make n 0.0 and sg = Array.make n 0.0 in
  for id = 0 to n - 1 do
    let t = Ssta.path_through res ~backward:bwd id in
    mu.(id) <- t.Canonical.mean;
    sg.(id) <- Canonical.sigma t
  done;
  (res, bwd, mu, sg, Ssta.timing_yield res ~tmax)

let assert_matches ~what d model ~tmax h =
  let res, bwd, mu, sg, y = reference d model ~tmax in
  let n = Circuit.num_gates d.Design.circuit in
  for id = 0 to n - 1 do
    if not (ceq res.Ssta.arrival.(id) (Hier.arrival h id)) then
      Alcotest.failf "%s: arrival(%d) diverged" what id;
    if not (ceq bwd.(id) (Hier.required h id)) then
      Alcotest.failf "%s: required(%d) diverged" what id;
    if not (feq mu.(id) (Hier.path_mu h).(id)) then
      Alcotest.failf "%s: path_mu(%d) diverged" what id;
    if not (feq sg.(id) (Hier.path_sigma h).(id)) then
      Alcotest.failf "%s: path_sigma(%d) diverged" what id
  done;
  if not (ceq res.Ssta.circuit_delay (Hier.circuit_delay h)) then
    Alcotest.failf "%s: circuit_delay diverged" what;
  if not (feq y (Hier.yield h)) then
    Alcotest.failf "%s: yield diverged (%.17g vs %.17g)" what y (Hier.yield h)

(* One-shot analyze agrees bit-for-bit with the flat pass, for every
   jobs value. *)
let test_analyze_bit_identity () =
  let c = pipeline () in
  let d = design c in
  let model = Model.build Spec.default c in
  let flat = Ssta.analyze d model in
  List.iter
    (fun jobs ->
      match Hier.analyze ~jobs d model with
      | None -> Alcotest.failf "jobs=%d: pipeline did not partition" jobs
      | Some r ->
        let n = Circuit.num_gates c in
        for id = 0 to n - 1 do
          if not (ceq flat.Ssta.arrival.(id) r.Ssta.arrival.(id)) then
            Alcotest.failf "jobs=%d: arrival(%d) diverged" jobs id;
          if not (ceq flat.Ssta.gate_delay.(id) r.Ssta.gate_delay.(id)) then
            Alcotest.failf "jobs=%d: gate_delay(%d) diverged" jobs id
        done;
        if not (ceq flat.Ssta.circuit_delay r.Ssta.circuit_delay) then
          Alcotest.failf "jobs=%d: circuit_delay diverged" jobs)
    [ 1; 2; 4 ]

(* A purely combinational netlist is one connected component: the cut is
   declined, and the engine times the design as one cone whose state
   equals a from-scratch analysis. *)
let test_fallback_combinational () =
  let c = Option.get (Benchmarks.by_name "add32") in
  let d = design c in
  let model = Model.build Spec.default c in
  (match Hier.analyze d model with
  | Some _ -> Alcotest.fail "add32 should not partition"
  | None -> ());
  let tmax = 1000.0 in
  let e = Hier.create ~partition:true d model ~tmax in
  Alcotest.(check int) "one cone" 1 (Hier.num_partitions e);
  assert_matches ~what:"one cone" d model ~tmax e

(* Random Vth/size/extra-load moves through the register cones, synced
   and bit-compared against a from-scratch analysis of the global
   design — for every jobs value, with yield-only syncs interleaved. *)
let incremental_identity_test jobs () =
  let c = pipeline ~stages:3 ~width:4 ~layers:2 () in
  let d = design c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  let h = Hier.create ~partition:true ~jobs d model ~tmax in
  Alcotest.(check int) "stage count" 3 (Hier.num_partitions h);
  assert_matches ~what:"initial" d model ~tmax h;
  let ids = cells d in
  let rng = Rng.create 42 in
  let lib = d.Design.lib in
  for step = 1 to 40 do
    let id = ids.(Rng.int rng (Array.length ids)) in
    (match Rng.int rng 3 with
    | 0 -> Design.set_vth d id ((d.Design.vth_idx.(id) + 1) mod Cell_lib.num_vth lib)
    | 1 ->
      Design.set_size d id
        (Stdlib.min (Cell_lib.num_sizes lib - 1) (d.Design.size_idx.(id) + 1))
    | _ -> Design.set_extra_load d id (Rng.float rng 6.0));
    Hier.update_gate h id;
    if step mod 3 = 0 then begin
      (* yield-only sync first: paths stay deferred, then settle *)
      Hier.sync ~paths:false h;
      let y_ref =
        Ssta.timing_yield (Ssta.analyze d model) ~tmax
      in
      if not (feq y_ref (Hier.yield h)) then
        Alcotest.failf "step %d: yield-only sync diverged" step
    end;
    Hier.sync h;
    if step mod 10 = 0 then assert_matches ~what:(Printf.sprintf "step %d" step) d model ~tmax h
  done;
  assert_matches ~what:"final" d model ~tmax h;
  Alcotest.(check bool) "audit" true (Hier.audit h)

(* Checkpoint / rollback / commit restore the stitched state and every
   cone bit-exactly, mirroring Incremental's contract. *)
let test_checkpoint_rollback () =
  let c = pipeline () in
  let d = design c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  let h = cones ~jobs:2 d model ~tmax in
  let ids = cells d in
  let saved_vth = Array.copy d.Design.vth_idx in
  let saved_size = Array.copy d.Design.size_idx in
  let y0 = Hier.yield h in
  let cd0 = Hier.circuit_delay h in
  let cp = Hier.checkpoint h in
  (* touch gates in several partitions *)
  Array.iteri
    (fun i id ->
      if i mod 5 = 0 then begin
        Design.set_vth d id 1;
        Hier.update_gate h id
      end)
    ids;
  Hier.sync ~paths:false h;
  (* reject: restore the assignment, then roll the timing view back *)
  Array.blit saved_vth 0 d.Design.vth_idx 0 (Array.length saved_vth);
  Array.blit saved_size 0 d.Design.size_idx 0 (Array.length saved_size);
  Hier.rollback h cp;
  Alcotest.(check bool) "yield restored" true (feq y0 (Hier.yield h));
  Alcotest.(check bool) "delay restored" true (ceq cd0 (Hier.circuit_delay h));
  assert_matches ~what:"after rollback" d model ~tmax h;
  (* accept path: same edit, committed this time *)
  let cp = Hier.checkpoint h in
  Design.set_size d ids.(0) (d.Design.size_idx.(ids.(0)) + 1);
  Hier.update_gate h ids.(0);
  Hier.sync h;
  Hier.commit h cp;
  assert_matches ~what:"after commit" d model ~tmax h;
  Alcotest.(check bool) "audit after commit" true (Hier.audit h)

(* rebuild after a bulk restore re-times every cone from scratch. *)
let test_rebuild () =
  let c = pipeline () in
  let d = design c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  let h = cones ~jobs:2 d model ~tmax in
  let ids = cells d in
  Array.iter (fun id -> d.Design.vth_idx.(id) <- 1) ids;
  Hier.rebuild h;
  assert_matches ~what:"after rebuild" d model ~tmax h

(* The optimizers walk the exact same trajectory over the hier engine:
   same moves, bit-identical leakage and yield. *)
let optimizer_identity_test mode () =
  let c = pipeline ~stages:3 ~width:6 ~layers:3 () in
  let model = Model.build Spec.default c in
  let d0 = Ssta.analyze (design c) model in
  let tmax = 1.10 *. d0.Ssta.circuit_delay.Canonical.mean in
  let run ~partition ~jobs =
    let d = design c in
    match mode with
    | `Stat ->
      let st =
        Stat_opt.optimize
          { (Stat_opt.default_config ~tmax ~eta:0.9) with
            Stat_opt.partition; jobs }
          d model
      in
      (d, st.Stat_opt.final_yield, st.Stat_opt.vth_moves, st.Stat_opt.size_moves)
    | `Batch ->
      let st =
        Batch_opt.optimize
          { (Batch_opt.default_config ~tmax ~eta:0.9) with
            Batch_opt.partition; jobs }
          d model
      in
      (d, st.Batch_opt.final_yield, st.Batch_opt.vth_moves, st.Batch_opt.size_moves)
  in
  let d_flat, y_flat, vm_flat, sm_flat = run ~partition:false ~jobs:1 in
  List.iter
    (fun jobs ->
      let d_h, y_h, vm_h, sm_h = run ~partition:true ~jobs in
      Alcotest.(check int) (Printf.sprintf "jobs=%d vth moves" jobs) vm_flat vm_h;
      Alcotest.(check int) (Printf.sprintf "jobs=%d size moves" jobs) sm_flat sm_h;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d yield bits" jobs)
        true (feq y_flat y_h);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d assignment" jobs)
        true
        (d_flat.Design.vth_idx = d_h.Design.vth_idx
        && d_flat.Design.size_idx = d_h.Design.size_idx))
    [ 1; 2; 4 ]

(* Absolute multi-cone trajectories.  The identity test above compares
   partition mode with one cone, so a change that moved both alike would
   pass it; these pin the register-cone optimize of a four-stage pipeline
   (tmax = 1.25·D0, eta = 0.9, default configs) move for move, with the
   final yield and E[leak] of a fresh Leak_ssta compared as IEEE bits.
   Every pin holds at jobs 1 and 2. *)
type cone_pin = {
  p_vth : int;
  p_size : int;
  p_trials : int;
  p_passes : int;
  p_tried : int;
  p_committed : int;
  p_rolled_back : int;
  p_bisections : int;
  p_rollbacks : int;
  p_yield_bits : string;
  p_eleak_bits : string;
  p_digest : string;
}

let cone_pins =
  [
    ( `Stat,
      {
        p_vth = 371;
        p_size = 419;
        p_trials = 29707;
        p_passes = 80;
        p_tried = 0;
        p_committed = 0;
        p_rolled_back = 0;
        p_bisections = 0;
        p_rollbacks = 96;
        p_yield_bits = "3fedbad07151178d";
        p_eleak_bits = "40b462ca11c2079b";
        p_digest = "v[13,371]/s[63,285,36,0,0,0,0]";
      } );
    ( `Batch,
      {
        p_vth = 384;
        p_size = 449;
        p_trials = 38653;
        p_passes = 119;
        p_tried = 126;
        p_committed = 121;
        p_rolled_back = 5;
        p_bisections = 5;
        p_rollbacks = 794;
        p_yield_bits = "3fed599f74334ca0";
        p_eleak_bits = "40a18589dece5849";
        p_digest = "v[0,384]/s[105,231,48,0,0,0,0]";
      } );
  ]

let test_cone_pins () =
  let c = pipeline ~stages:4 ~width:16 ~layers:6 () in
  let model = Model.build Spec.default c in
  let d0 = design c in
  let tmax = 1.25 *. (Ssta.analyze d0 model).Ssta.circuit_delay.Canonical.mean in
  if Hier.num_partitions (Hier.create ~partition:true d0 model ~tmax) < 3 then
    Alcotest.fail "pipeline did not cut into three or more cones";
  let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x) in
  List.iter
    (fun (mode, p) ->
      List.iter
        (fun jobs ->
          let d = design c in
          let (s : Sl_opt.Opt_core.stats) =
            match mode with
            | `Stat ->
              Stat_opt.optimize
                { (Stat_opt.default_config ~tmax ~eta:0.9) with
                  Stat_opt.partition = true; jobs }
                d model
            | `Batch ->
              Batch_opt.optimize
                { (Batch_opt.default_config ~tmax ~eta:0.9) with
                  Batch_opt.partition = true; jobs }
                d model
          in
          let tag what =
            Printf.sprintf "%s jobs=%d: %s"
              (match mode with `Stat -> "stat" | `Batch -> "batch")
              jobs what
          in
          let int what expected actual = Alcotest.(check int) (tag what) expected actual in
          let str what expected actual = Alcotest.(check string) (tag what) expected actual in
          int "vth_moves" p.p_vth s.vth_moves;
          int "size_moves" p.p_size s.size_moves;
          int "trials" p.p_trials s.trials;
          int "passes" p.p_passes s.passes;
          int "bands tried" p.p_tried s.bands_tried;
          int "bands committed" p.p_committed s.bands_committed;
          int "bands rolled back" p.p_rolled_back s.bands_rolled_back;
          int "bisections" p.p_bisections s.bisections;
          int "rollbacks" p.p_rollbacks s.rollbacks;
          str "final yield bits" p.p_yield_bits (bits s.final_yield);
          str "E[leak] bits" p.p_eleak_bits
            (bits (Leak_ssta.mean (Leak_ssta.create d model)));
          str "digest" p.p_digest (Design.assignment_digest d))
        [ 1; 2 ])
    cone_pins

(* The boundary macromodels cover every global output, named after the
   driving net, and max-folding them reproduces the circuit delay. *)
let test_boundary_macromodels () =
  let c = pipeline () in
  let d = design c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  let h = cones d model ~tmax in
  let b = Hier.boundary h in
  Alcotest.(check int) "one macromodel per output"
    (Array.length c.Circuit.outputs) (Array.length b);
  Array.iteri
    (fun i o ->
      let name, arr = b.(i) in
      Alcotest.(check string) "net name" (Circuit.gate c o).Circuit.name name;
      Alcotest.(check bool) "arrival form" true (ceq arr (Hier.arrival h o)))
    c.Circuit.outputs

let suite =
  [
    ( "ssta.hier",
      [
        Alcotest.test_case "analyze bit-identity jobs 1/2/4" `Quick
          test_analyze_bit_identity;
        Alcotest.test_case "combinational fallback" `Quick
          test_fallback_combinational;
        Alcotest.test_case "incremental identity jobs=1" `Quick
          (incremental_identity_test 1);
        Alcotest.test_case "incremental identity jobs=2" `Quick
          (incremental_identity_test 2);
        Alcotest.test_case "incremental identity jobs=4" `Quick
          (incremental_identity_test 4);
        Alcotest.test_case "checkpoint rollback commit" `Quick
          test_checkpoint_rollback;
        Alcotest.test_case "rebuild" `Quick test_rebuild;
        Alcotest.test_case "boundary macromodels" `Quick
          test_boundary_macromodels;
        Alcotest.test_case "stat optimizer identity" `Slow
          (optimizer_identity_test `Stat);
        Alcotest.test_case "batch optimizer identity" `Slow
          (optimizer_identity_test `Batch);
        Alcotest.test_case "register-cone optimizer pins" `Slow test_cone_pins;
      ] );
  ]
