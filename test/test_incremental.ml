(* Incremental SSTA engine: bit-identity against from-scratch analysis.

   The contract under test (Sl_ssta.Incremental's invariant) is exact: at
   every synced point, every stored canonical form and derived scalar must
   equal — to the IEEE bit — what a fresh Ssta.analyze + backward +
   path_through of the current design would produce. *)

module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Memo = Sl_tech.Memo
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Incremental = Sl_ssta.Incremental
module Hier = Sl_ssta.Hier
module Bench_format = Sl_netlist.Bench_format
module Generators = Sl_netlist.Generators
module Rng = Sl_util.Rng
module Leak_ssta = Sl_leakage.Leak_ssta
module Stat_opt = Sl_opt.Stat_opt
module Setup = Statleak.Setup

let design circuit = Design.create ~size_idx:2 (Cell_lib.default ()) circuit

let cells (d : Design.t) =
  Array.to_list d.Design.circuit.Circuit.gates
  |> List.filter_map (fun (g : Circuit.gate) ->
         if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.id)
  |> Array.of_list

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ceq (a : Canonical.t) (b : Canonical.t) =
  feq a.Canonical.mean b.Canonical.mean
  && feq a.Canonical.rnd b.Canonical.rnd
  && Array.length a.Canonical.coeffs = Array.length b.Canonical.coeffs
  && Array.for_all2 feq a.Canonical.coeffs b.Canonical.coeffs

(* The reference: a from-scratch analysis of the current design. *)
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

let assert_matches ~what d model ~tmax inc =
  let res, bwd, mu, sg, y = reference d model ~tmax in
  let n = Circuit.num_gates d.Design.circuit in
  for id = 0 to n - 1 do
    if not (ceq res.Ssta.arrival.(id) (Incremental.arrival inc id)) then
      Alcotest.failf "%s: arrival(%d) diverged" what id;
    if not (ceq bwd.(id) (Incremental.required inc id)) then
      Alcotest.failf "%s: required(%d) diverged" what id;
    if not (feq mu.(id) (Incremental.path_mu inc).(id)) then
      Alcotest.failf "%s: path_mu(%d) diverged" what id;
    if not (feq sg.(id) (Incremental.path_sigma inc).(id)) then
      Alcotest.failf "%s: path_sigma(%d) diverged" what id
  done;
  if not (ceq res.Ssta.circuit_delay (Incremental.circuit_delay inc)) then
    Alcotest.failf "%s: circuit_delay diverged" what;
  if not (feq y (Incremental.yield inc)) then
    Alcotest.failf "%s: yield diverged (%.17g vs %.17g)" what y (Incremental.yield inc)

(* Both engines expose the same state, word for word. *)
let assert_same ~what n a b =
  for id = 0 to n - 1 do
    if not (ceq (Incremental.arrival a id) (Incremental.arrival b id)) then
      Alcotest.failf "%s: arrival(%d) differs from jobs=1" what id;
    if not (ceq (Incremental.required a id) (Incremental.required b id)) then
      Alcotest.failf "%s: required(%d) differs from jobs=1" what id;
    if not (feq (Incremental.path_mu a).(id) (Incremental.path_mu b).(id)) then
      Alcotest.failf "%s: path_mu(%d) differs from jobs=1" what id;
    if not (feq (Incremental.path_sigma a).(id) (Incremental.path_sigma b).(id)) then
      Alcotest.failf "%s: path_sigma(%d) differs from jobs=1" what id
  done;
  if not (ceq (Incremental.circuit_delay a) (Incremental.circuit_delay b)) then
    Alcotest.failf "%s: circuit_delay differs from jobs=1" what;
  if not (feq (Incremental.yield a) (Incremental.yield b)) then
    Alcotest.failf "%s: yield differs from jobs=1" what

(* 200 random Vth/size/extra-load moves with an apply/abort mix;
   bit-compare against a fresh full analysis after every tenth sync.
   With [jobs] > 1 and a threshold of 2, every staged level of two or
   more gates is computed on domains, and a jobs=1 twin over the same
   design must hold the same words after every sync. *)
let random_moves_test ?(jobs = 1) ?par_threshold name () =
  let c = Option.get (Benchmarks.by_name name) in
  let d = design c in
  let model = Model.build Spec.default c in
  let res0 = Ssta.analyze d model in
  let tmax = 1.25 *. res0.Ssta.circuit_delay.Canonical.mean in
  let inc = Incremental.create ~jobs ?par_threshold d model ~tmax in
  let twin = if jobs > 1 then Some (Incremental.create d model ~tmax) else None in
  let engines = inc :: Option.to_list twin in
  let n = Circuit.num_gates c in
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let rng = Rng.create 91 in
  let random_move () =
    let id = ids.(Rng.int rng (Array.length ids)) in
    (match Rng.int rng 3 with
    | 0 -> Design.set_vth d id (Rng.int rng num_vth)
    | 1 -> Design.set_size d id (Rng.int rng num_sizes)
    | _ -> Design.set_extra_load d id (Rng.float rng 6.0));
    id
  in
  assert_matches ~what:(name ^ " initial") d model ~tmax inc;
  for step = 1 to 200 do
    if Rng.int rng 10 < 3 then begin
      (* abort path: trial-apply a small batch under a checkpoint, sync,
         then roll everything back — state must return to the pre-trial
         analysis bit-for-bit *)
      let saved_vth = Array.copy d.Design.vth_idx in
      let saved_size = Array.copy d.Design.size_idx in
      let saved_load = Array.copy d.Design.extra_load in
      let cps = List.map Incremental.checkpoint engines in
      for _ = 1 to 1 + Rng.int rng 3 do
        let id = random_move () in
        List.iter (fun e -> Incremental.update_gate e id) engines
      done;
      List.iter (fun e -> Incremental.sync e) engines;
      Option.iter (assert_same ~what:(Printf.sprintf "%s step %d trial" name step) n inc) twin;
      Array.blit saved_vth 0 d.Design.vth_idx 0 (Array.length saved_vth);
      Array.blit saved_size 0 d.Design.size_idx 0 (Array.length saved_size);
      Array.blit saved_load 0 d.Design.extra_load 0 (Array.length saved_load);
      List.iter2 Incremental.rollback engines cps
    end
    else begin
      let id = random_move () in
      List.iter
        (fun e ->
          Incremental.update_gate e id;
          Incremental.sync e)
        engines
    end;
    Option.iter (assert_same ~what:(Printf.sprintf "%s step %d" name step) n inc) twin;
    if step mod 10 = 0 || step = 200 then
      assert_matches ~what:(Printf.sprintf "%s step %d" name step) d model ~tmax inc
  done;
  if not (Incremental.audit inc) then Alcotest.failf "%s: final audit failed" name;
  let st = Incremental.stats inc in
  if st.Incremental.updates = 0 || st.Incremental.propagated = 0 then
    Alcotest.fail "no incremental work recorded";
  if jobs > 1 && st.Incremental.par_levels = 0 then
    Alcotest.fail "no level batch ran on domains"

(* Unsynced checkpoints and double checkpoints must be rejected. *)
let test_checkpoint_discipline () =
  let c = Benchmarks.c17 () in
  let d = design c in
  let model = Model.build Spec.default c in
  let inc = Incremental.create d model ~tmax:100.0 in
  let cp = Incremental.checkpoint inc in
  Alcotest.check_raises "second checkpoint"
    (Invalid_argument "Incremental.checkpoint: one is already active") (fun () ->
      ignore (Incremental.checkpoint inc));
  Incremental.commit inc cp;
  let ids = cells d in
  Design.set_vth d ids.(0) 1;
  Incremental.update_gate inc ids.(0);
  Alcotest.check_raises "unsynced checkpoint"
    (Invalid_argument "Incremental.checkpoint: state not synced") (fun () ->
      ignore (Incremental.checkpoint inc));
  Incremental.sync inc;
  if not (Incremental.audit inc) then Alcotest.fail "audit after sync"

(* The memo table must reproduce Design.gate_delay / gate_delay_sens
   bitwise, including under what-if assignments. *)
let test_memo_bit_identity () =
  let c = Option.get (Benchmarks.by_name "add32") in
  let d = design c in
  let memo = Memo.create d.Design.lib in
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let id = ids.(Rng.int rng (Array.length ids)) in
    Design.set_vth d id (Rng.int rng num_vth);
    Design.set_size d id (Rng.int rng num_sizes)
  done;
  Array.iter
    (fun id ->
      if not (feq (Design.gate_delay d id ~dvth:0.0 ~dl:0.0) (Memo.gate_delay memo d id))
      then Alcotest.failf "memo gate_delay diverged at %d" id;
      let sv, sl = Design.gate_delay_sens d id in
      let mv, ml = Memo.gate_delay_sens memo d id in
      if not (feq sv mv && feq sl ml) then
        Alcotest.failf "memo gate_delay_sens diverged at %d" id;
      (* what-if = mutate-measure-restore, bit for bit *)
      let vth_idx = Rng.int rng num_vth and size_idx = Rng.int rng num_sizes in
      let v0 = d.Design.vth_idx.(id) and s0 = d.Design.size_idx.(id) in
      Design.set_vth d id vth_idx;
      Design.set_size d id size_idx;
      let expect = Design.gate_delay d id ~dvth:0.0 ~dl:0.0 in
      Design.set_vth d id v0;
      Design.set_size d id s0;
      if not (feq expect (Memo.gate_delay_at memo d id ~vth_idx ~size_idx)) then
        Alcotest.failf "memo gate_delay_at diverged at %d" id)
    ids

(* ---------- optimizer regression: outputs unchanged vs. the seed ----------

   The numbers below were captured by running the seed revision's
   Stat_opt.optimize (default config, tmax = 1.25·D0, eta = 0.95) before
   the incremental engine existed; the incremental rewiring was a pure
   performance change and must keep reproducing them exactly.  The
   propagation count was pinned later, on the incremental engine. *)

type pinned = {
  p_name : string;
  p_vth : int;
  p_size : int;
  p_trials : int;
  p_refreshes : int;
  p_rollbacks : int;
  p_yield : float;
  p_eleak : float;
  p_digest : string;
  p_props : int;
}

let seed_pins =
  [
    {
      p_name = "c17";
      p_vth = 6;
      p_size = 9;
      p_trials = 41;
      p_refreshes = 15;
      p_rollbacks = 5;
      p_yield = 0.98157016622745974;
      p_eleak = 26.978547820197967;
      p_digest = "v[0,6]/s[2,3,0,1,0,0,0]";
      p_props = 71;
    };
    {
      p_name = "add32";
      p_vth = 160;
      p_size = 282;
      p_trials = 625;
      p_refreshes = 64;
      p_rollbacks = 39;
      p_yield = 0.9509502817062272;
      p_eleak = 694.34262547772698;
      p_digest = "v[0,160]/s[121,39,0,0,0,0,0]";
      p_props = 4620;
    };
  ]

let check_rel ~eps msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let optimizer_regression () =
  List.iter
    (fun p ->
      let s = Setup.of_benchmark p.p_name in
      let tmax = Setup.tmax s ~factor:1.25 in
      let d = Setup.fresh_design s in
      let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d s.Setup.model in
      let tag what = Printf.sprintf "%s: %s" p.p_name what in
      Alcotest.(check int) (tag "vth_moves") p.p_vth st.Stat_opt.vth_moves;
      Alcotest.(check int) (tag "size_moves") p.p_size st.Stat_opt.size_moves;
      Alcotest.(check int) (tag "trials") p.p_trials st.Stat_opt.trials;
      Alcotest.(check int) (tag "refreshes") p.p_refreshes st.Stat_opt.refreshes;
      Alcotest.(check int) (tag "rollbacks") p.p_rollbacks st.Stat_opt.rollbacks;
      check_rel ~eps:1e-12 (tag "yield") p.p_yield st.Stat_opt.final_yield;
      Alcotest.(check int) (tag "propagated gates") p.p_props
        st.Stat_opt.propagated_gates;
      let eleak = Leak_ssta.mean (Leak_ssta.create d s.Setup.model) in
      check_rel ~eps:1e-12 (tag "E[leak]") p.p_eleak eleak;
      Alcotest.(check string) (tag "digest") p.p_digest (Design.assignment_digest d))
    seed_pins

(* An audited run checks bit-agreement with a from-scratch analysis at
   every re-measure point of every pass, and walks the unaudited run's
   trajectory. *)
let test_optimize_with_audit () =
  let s = Setup.of_benchmark "add32" in
  let tmax = Setup.tmax s ~factor:1.25 in
  let st =
    Audit.run Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95)
      (Setup.fresh_design s) s.Setup.model
  in
  if not st.Stat_opt.feasible then Alcotest.fail "audited run infeasible"

(* ---------- engine pins: state digests and counters ----------

   A seeded 300-step sequence through the engine (Sl_ssta.Hier): single
   moves with a full sync or a yield-only ([~paths:false]) sync,
   checkpointed batches that are rolled back or committed, and one bulk
   edit followed by a rebuild.  After every step the whole readable
   state — each arrival, required time, path mu/sigma, the circuit delay
   and the yield — is hashed word for word into a running digest.  The
   digests were recorded before the engine moved to slot state and the
   shared gate kernels; the counters hold the cutoff semantics that the
   benchmark's propagation counts rely on.  add32 with [~partition:true]
   declines the register cut (it is combinational), so its one cone must
   reproduce the plain add32 pin word for word. *)

let state_digest e n =
  let b = Buffer.create (n * 640) in
  let word x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let form (c : Canonical.t) =
    word c.Canonical.mean;
    word c.Canonical.rnd;
    Array.iter word c.Canonical.coeffs
  in
  let mu = Hier.path_mu e and sg = Hier.path_sigma e in
  for id = 0 to n - 1 do
    form (Hier.arrival e id);
    form (Hier.required e id);
    word mu.(id);
    word sg.(id)
  done;
  form (Hier.circuit_delay e);
  word (Hier.yield e);
  Buffer.contents b

let pin_sequence ~partition ~cones c =
  let d = design c in
  let model = Model.build Spec.default c in
  let tmax = 1.25 *. (Ssta.analyze d model).Ssta.circuit_delay.Canonical.mean in
  let e = Hier.create ~partition d model ~tmax in
  Alcotest.(check int) "cones" cones (Hier.num_partitions e);
  let n = Circuit.num_gates c in
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let rng = Rng.create 2024 in
  let pick () = ids.(Rng.int rng (Array.length ids)) in
  let move () =
    let id = pick () in
    if Rng.int rng 2 = 0 then Design.set_vth d id (Rng.int rng num_vth)
    else Design.set_size d id (Rng.int rng num_sizes);
    Hier.update_gate e id
  in
  let h = ref (Digest.string (state_digest e n)) in
  for step = 1 to 300 do
    (if step = 150 then begin
       (* bulk edit behind the engine's back, then a from-scratch rebuild *)
       for _ = 1 to 8 do
         d.Design.vth_idx.(pick ()) <- Rng.int rng num_vth
       done;
       Hier.rebuild e
     end
     else
       match Rng.int rng 10 with
       | 0 | 1 | 2 | 3 ->
         move ();
         Hier.sync e
       | 4 | 5 ->
         move ();
         Hier.sync ~paths:false e
       | _ ->
         let saved_vth = Array.copy d.Design.vth_idx in
         let saved_size = Array.copy d.Design.size_idx in
         let cp = Hier.checkpoint e in
         for _ = 1 to 1 + Rng.int rng 4 do
           move ();
           if Rng.int rng 2 = 0 then Hier.sync ~paths:false e
         done;
         Hier.sync ~paths:(Rng.int rng 2 = 0) e;
         if Rng.int rng 2 = 0 then begin
           Array.blit saved_vth 0 d.Design.vth_idx 0 (Array.length saved_vth);
           Array.blit saved_size 0 d.Design.size_idx 0 (Array.length saved_size);
           Hier.rollback e cp
         end
         else Hier.commit e cp);
    h := Digest.string (Digest.to_hex !h ^ state_digest e n)
  done;
  (Digest.to_hex !h, Hier.stats e)

type engine_pin = {
  e_label : string;
  e_circuit : string;
  e_partition : bool;
  e_cones : int;
  e_digest : string;
  e_counts : int * int * int * int * int * int;
      (* updates, syncs, propagated, bwd_propagated, cutoffs, max_cone *)
}

let engine_pins =
  let add32 =
    {
      e_label = "add32";
      e_circuit = "add32";
      e_partition = false;
      e_cones = 1;
      e_digest = "a94b50f3d3c01c19506b9476248f7fee";
      e_counts = (490, 428, 8854, 12206, 278, 98);
    }
  in
  [
    add32;
    {
      e_label = "mult8";
      e_circuit = "mult8";
      e_partition = false;
      e_cones = 1;
      e_digest = "f4c8bcc1f046a6e5d33ce44c1d379ad0";
      e_counts = (490, 428, 14811, 14989, 859, 196);
    };
    {
      (* a 2-stage register pipeline, counters summed over the cones *)
      e_label = "pipe2";
      e_circuit = "pipe2";
      e_partition = true;
      e_cones = 2;
      e_digest = "4e4f9f874a3ef437ad03ae7436d41ba6";
      e_counts = (490, 543, 2862, 2527, 434, 22);
    };
    { add32 with e_label = "add32, partition"; e_partition = true };
  ]

let pin_circuit = function
  | "pipe2" ->
    Bench_format.parse_string ~sequential:`Cut ~name:"pipe2"
      (Generators.seq_pipeline_bench ~stages:2 ~width:8 ~layers:4)
  | name -> Option.get (Benchmarks.by_name name)

let engine_pin_test p () =
  let digest, st =
    pin_sequence ~partition:p.e_partition ~cones:p.e_cones (pin_circuit p.e_circuit)
  in
  let counts =
    Incremental.
      (st.updates, st.syncs, st.propagated, st.bwd_propagated, st.cutoffs, st.max_cone)
  in
  let u, s, pr, b, cu, m = counts in
  Alcotest.(check string) (p.e_label ^ " state digest") p.e_digest digest;
  Alcotest.(check (list int))
    (p.e_label ^ " counters")
    (let u, s, pr, b, cu, m = p.e_counts in
     [ u; s; pr; b; cu; m ])
    [ u; s; pr; b; cu; m ]

(* ---------- allocation guard ----------

   Machine-independent bound on the re-timing kernel: 2,000 seeded
   single-gate moves at jobs=1, each followed by [update_gate] and a full
   [sync] — once bare, once under a checkpoint + commit — may allocate at
   most 160 words per arrival or required-time recompute, measured with
   [Gc.allocated_bytes] (which also counts direct major-heap allocations)
   over the whole loop: moves, delay re-derivation, sync and checkpoint
   bookkeeping.  Folding canonical records per recompute costs well over
   a thousand words. *)

(* 2,000 seeded moves on [name] at jobs=1, each applied to the design
   and followed by [update] and [sync]: the words allocated over the
   whole loop.  A minor collection at both ends settles the promotion
   accounting, so the count is exact rather than off by what the last
   collection promoted. *)
let cycle_words name ~engine =
  let c = Option.get (Benchmarks.by_name name) in
  let d = design c in
  let model = Model.build Spec.default c in
  let tmax = 1.25 *. (Ssta.analyze d model).Ssta.circuit_delay.Canonical.mean in
  let update, sync = engine d model ~tmax in
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let rng = Rng.create 5 in
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 2000 do
    let id = ids.(Rng.int rng (Array.length ids)) in
    if Rng.int rng 2 = 0 then Design.set_vth d id (Rng.int rng num_vth)
    else Design.set_size d id (Rng.int rng num_sizes);
    update id;
    sync ()
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)

let words_per_recompute ~checkpointed name =
  let inc = ref None in
  let engine d model ~tmax =
    let i = Incremental.create d model ~tmax in
    inc := Some i;
    if checkpointed then
      ( (fun id ->
          let cp = Incremental.checkpoint i in
          Incremental.update_gate i id;
          Incremental.sync i;
          Incremental.commit i cp),
        ignore )
    else (Incremental.update_gate i, fun () -> Incremental.sync i)
  in
  let words = cycle_words name ~engine in
  let st = Incremental.stats (Option.get !inc) in
  words /. float_of_int (st.Incremental.propagated + st.Incremental.bwd_propagated)

(* The engine's own share of a cycle: the same 2,000 moves on add32
   through the one-cone engine and through a bare Incremental may differ
   by at most 16 words per update+sync cycle — a sync of the lone dirty
   cone that builds no cone list, closure per cone or circuit-delay
   record. *)
let engine_words_per_cycle () =
  let bare =
    cycle_words "add32" ~engine:(fun d model ~tmax ->
        let i = Incremental.create d model ~tmax in
        (Incremental.update_gate i, fun () -> Incremental.sync i))
  in
  let engine =
    cycle_words "add32" ~engine:(fun d model ~tmax ->
        let e = Hier.create d model ~tmax in
        (Hier.update_gate e, fun () -> Hier.sync e))
  in
  (engine -. bare) /. 2000.0

let test_sync_allocation_budget () =
  List.iter
    (fun name ->
      List.iter
        (fun checkpointed ->
          let per = words_per_recompute ~checkpointed name in
          if per > 160.0 then
            Alcotest.failf "%s%s: %.1f words per recompute (budget 160)" name
              (if checkpointed then " under checkpoint + commit" else "")
              per)
        [ false; true ])
    [ "add32"; "mult8"; "alu32" ];
  let extra = engine_words_per_cycle () in
  if extra > 16.0 then
    Alcotest.failf "engine sync: %.1f more words per cycle than a bare Incremental (budget 16)"
      extra

(* ---------- zero-sigma yield-cost guard ---------- *)

let test_zero_sigma_cost () =
  let path_mu = [| 50.0; 120.0 |] and path_sigma = [| 0.0; 0.0 |] in
  let cost = Sl_opt.Opt_core.est_yield_cost ~path_mu ~path_sigma ~tmax:100.0 in
  (* below the constraint, pushed over: full cost *)
  Alcotest.(check (float 0.0)) "crossing move" 1.0 (cost 0 ~delta:60.0);
  (* below the constraint, stays below: free *)
  Alcotest.(check (float 0.0)) "safe move" 0.0 (cost 0 ~delta:10.0);
  (* already over the constraint: must NOT be charged again *)
  Alcotest.(check (float 0.0)) "already violating" 0.0 (cost 1 ~delta:60.0);
  (* the pinned score of a zero-sigma free-to-slow gate: cost 0 means the
     1e-12 epsilon alone sets the score — finite, not nan/inf surprise *)
  let score = 5.0 /. (cost 0 ~delta:10.0 +. 1e-12) in
  Alcotest.(check (float 1e-3)) "zero-sigma score" 5.0e12 score;
  if not (Float.is_finite score) then Alcotest.fail "score not finite"

let suite =
  [
    ( "incremental",
      [
        Alcotest.test_case "memo bit-identity (add32)" `Quick test_memo_bit_identity;
        Alcotest.test_case "200 random moves = full SSTA (c17)" `Quick
          (random_moves_test "c17");
        Alcotest.test_case "200 random moves = full SSTA (add32)" `Slow
          (random_moves_test "add32");
        Alcotest.test_case "200 random moves = full SSTA (mult8)" `Slow
          (random_moves_test "mult8");
        Alcotest.test_case "200 random moves = full SSTA (add32, jobs=2)" `Slow
          (random_moves_test ~jobs:2 ~par_threshold:2 "add32");
        Alcotest.test_case "checkpoint discipline" `Quick test_checkpoint_discipline;
        Alcotest.test_case "optimizer outputs = seed (incremental)" `Slow
          optimizer_regression;
        Alcotest.test_case "optimize with audit asserts agreement" `Slow
          test_optimize_with_audit;
        Alcotest.test_case "zero-sigma yield cost" `Quick test_zero_sigma_cost;
        Alcotest.test_case "allocation per recompute" `Slow
          test_sync_allocation_budget;
      ]
      @ List.map
          (fun p ->
            Alcotest.test_case
              (Printf.sprintf "engine pins (%s)" p.e_label)
              `Quick (engine_pin_test p))
          engine_pins );
  ]
