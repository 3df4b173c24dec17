module Inc_sta = Sl_opt.Inc_sta
module Det_opt = Sl_opt.Det_opt
module Stat_opt = Sl_opt.Stat_opt
module Anneal = Sl_opt.Anneal
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Benchmarks = Sl_netlist.Benchmarks
module Generators = Sl_netlist.Generators
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Sta = Sl_sta.Sta
module Ssta = Sl_ssta.Ssta
module Leak_ssta = Sl_leakage.Leak_ssta
module Rng = Sl_util.Rng
module Setup = Statleak.Setup

let check_float ?(eps = 1e-9) msg expected actual =
  if
    Float.abs (expected -. actual)
    > eps *. Float.max 1.0 (Float.max (Float.abs expected) (Float.abs actual))
  then Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let design circuit = Design.create ~size_idx:2 (Cell_lib.default ()) circuit

let cells (d : Design.t) =
  Array.to_list d.Design.circuit.Circuit.gates
  |> List.filter_map (fun (g : Circuit.gate) ->
         if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.id)
  |> Array.of_list

(* ---------- Inc_sta ---------- *)

let test_inc_corner_shift () =
  let d = design (Benchmarks.c17 ()) in
  let inc = Inc_sta.create ~dvth:0.05 ~dl:0.1 d in
  let n = Circuit.num_gates d.Design.circuit in
  let dvth = Array.make n 0.05 and dl = Array.make n 0.1 in
  check_float ~eps:1e-12 "corner dmax" (Sta.dmax ~dvth ~dl d) (Inc_sta.dmax inc)

(* Exactness: after every random move — set_vth / set_size + update_gate,
   half of them followed by the optimizers' trial-then-revert — the
   incremental state at a non-nominal corner equals a from-scratch
   Sta.analyze at that corner word for word.  The revert restores the
   design and then either re-propagates ([~undo:false]) or rolls the
   update back ([~undo:true], {!Inc_sta.undo}). *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Drive [moves] random moves on a seeded random DAG at a seeded corner.
   [check rng inc analyze] runs after the set-up and after every update,
   [analyze tmax] being a from-scratch Sta.analyze at the same corner; the
   property holds iff every check does.  In undo mode a last step undoes
   an update that changed no word. *)
let random_moves ~undo ~seed ~moves check =
  let rng = Rng.create seed in
  let c =
    Generators.random_dag ~seed ~gates:(40 + Rng.int rng 200) ~inputs:12 ~outputs:6
  in
  let d = design c in
  let dvth = 0.01 +. Rng.float rng 0.05 and dl = 0.02 +. Rng.float rng 0.1 in
  let inc = Inc_sta.create ~dvth ~dl d in
  let n = Circuit.num_gates c in
  let analyze tmax = Sta.analyze ~dvth:(Array.make n dvth) ~dl:(Array.make n dl) ~tmax d in
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib and num_sizes = Cell_lib.num_sizes d.Design.lib in
  let ok = ref (check rng inc analyze) in
  for _ = 1 to moves do
    let id = ids.(Rng.int rng (Array.length ids)) in
    let v = d.Design.vth_idx.(id) and s = d.Design.size_idx.(id) in
    if Rng.int rng 2 = 0 then Design.set_vth d id (Rng.int rng num_vth)
    else Design.set_size d id (Rng.int rng num_sizes);
    Inc_sta.update_gate inc id;
    ok := check rng inc analyze && !ok;
    if Rng.int rng 2 = 0 then begin
      Design.set_vth d id v;
      Design.set_size d id s;
      if undo then Inc_sta.undo inc else Inc_sta.update_gate inc id;
      ok := check rng inc analyze && !ok
    end
  done;
  if undo then begin
    let id = ids.(Rng.int rng (Array.length ids)) in
    Inc_sta.update_gate inc id;
    Inc_sta.undo inc;
    ok := check rng inc analyze && !ok
  end;
  !ok

let matches_full_sta ~undo =
  QCheck.Test.make
    ~name:("matches full STA" ^ if undo then " (undo)" else "")
    ~count:20 QCheck.(int_range 1 100_000)
    (fun seed ->
      random_moves ~undo ~seed ~moves:40 (fun _ inc analyze ->
          let res = analyze (Inc_sta.dmax inc) in
          feq res.Sta.dmax (Inc_sta.dmax inc)
          && Array.for_all Fun.id
               (Array.mapi (fun i a -> feq a (Inc_sta.arrival inc i)) res.Sta.arrival)
          && Array.for_all2 feq res.Sta.slack (Inc_sta.slacks inc ~tmax:(Inc_sta.dmax inc))))

(* slacks against constraints on both sides of the current delay, so
   negative slacks are covered too *)
let slacks_match_analyze ~undo =
  QCheck.Test.make
    ~name:("slacks match analyze" ^ if undo then " (undo)" else "")
    ~count:20 QCheck.(int_range 1 100_000)
    (fun seed ->
      random_moves ~undo ~seed ~moves:30 (fun rng inc analyze ->
          let tmax = Inc_sta.dmax inc *. (0.5 +. Rng.float rng 1.0) in
          Array.for_all2 feq (analyze tmax).Sta.slack (Inc_sta.slacks inc ~tmax)))

(* ---------- Det_opt ---------- *)

let spec = Spec.default

let test_det_respects_corner_timing () =
  let d = design (Generators.ripple_adder 16) in
  let tmax = 1.25 *. Sta.dmax d in
  let cfg = Det_opt.default_config ~tmax in
  let st = Det_opt.optimize cfg d spec in
  Alcotest.(check bool) "feasible" true st.Det_opt.feasible;
  Alcotest.(check bool) "corner delay within tmax" true
    (st.Det_opt.corner_dmax <= tmax +. 1e-6);
  (* verify independently at the same corner *)
  let k = cfg.Det_opt.corner_k in
  let n = Circuit.num_gates d.Design.circuit in
  let dvth = Array.make n (k *. spec.Spec.sigma_vth) in
  let dl = Array.make n (k *. spec.Spec.sigma_l) in
  Alcotest.(check bool) "independent corner check" true (Sta.dmax ~dvth ~dl d <= tmax +. 1e-6)

let test_det_reduces_leakage () =
  let c = Generators.ripple_adder 16 in
  let d = design c in
  let before = Design.total_leak_nominal d in
  let tmax = 1.3 *. Sta.dmax d in
  let st = Det_opt.optimize (Det_opt.default_config ~tmax) d spec in
  Alcotest.(check bool) "feasible" true st.Det_opt.feasible;
  let after = Design.total_leak_nominal d in
  Alcotest.(check bool)
    (Printf.sprintf "leak %.3g < %.3g" after before)
    true (after < 0.7 *. before)

let test_det_deterministic () =
  let run () =
    let d = design (Generators.array_multiplier 6) in
    let tmax = 1.25 *. Sta.dmax d in
    let _ = Det_opt.optimize (Det_opt.default_config ~tmax) d spec in
    (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx)
  in
  let v1, s1 = run () in
  let v2, s2 = run () in
  Alcotest.(check (array int)) "same vth" v1 v2;
  Alcotest.(check (array int)) "same sizes" s1 s2

let test_det_vth_only_respects_knobs () =
  let d = design (Generators.ripple_adder 8) in
  let tmax = 1.3 *. Sta.dmax d in
  let sizes_before = Array.copy d.Design.size_idx in
  let cfg = { (Det_opt.default_config ~tmax) with Det_opt.allow_size = false } in
  let st = Det_opt.optimize cfg d spec in
  Alcotest.(check int) "no size moves" 0 st.Det_opt.size_moves;
  Alcotest.(check (array int)) "sizes untouched" sizes_before d.Design.size_idx

let test_det_infeasible_reported () =
  (* an impossible constraint: half the nominal delay *)
  let d = design (Generators.array_multiplier 6) in
  let tmax = 0.5 *. Sta.dmax d in
  let st = Det_opt.optimize (Det_opt.default_config ~tmax) d spec in
  Alcotest.(check bool) "infeasible" false st.Det_opt.feasible

(* ---------- Stat_opt ---------- *)

let stat_setup circuit =
  let d = design circuit in
  let model = Model.build spec circuit in
  (d, model)

let test_stat_meets_yield_target () =
  List.iter
    (fun circuit ->
      let d, model = stat_setup circuit in
      let tmax = 1.25 *. Sta.dmax d in
      let eta = 0.95 in
      let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta) d model in
      Alcotest.(check bool) "feasible" true st.Stat_opt.feasible;
      (* verify with an independent SSTA and with Monte Carlo *)
      let res = Ssta.analyze d model in
      let y = Ssta.timing_yield res ~tmax in
      Alcotest.(check bool) (Printf.sprintf "ssta yield %.3f >= eta" y) true (y >= eta -. 1e-9);
      let mc = Sl_mc.Mc.run ~seed:5 ~samples:2000 d model in
      let ymc = Sl_mc.Mc.timing_yield mc ~tmax in
      Alcotest.(check bool)
        (Printf.sprintf "mc yield %.3f within 3%% of target" ymc)
        true
        (ymc >= eta -. 0.03))
    [ Generators.ripple_adder 16; Generators.array_multiplier 6 ]

let test_stat_reduces_statistical_leak () =
  let d, model = stat_setup (Generators.alu 8) in
  let before = Leak_ssta.mean (Leak_ssta.create d model) in
  let tmax = 1.25 *. Sta.dmax d in
  let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d model in
  Alcotest.(check bool) "feasible" true st.Stat_opt.feasible;
  let after = Leak_ssta.mean (Leak_ssta.create d model) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3g < half of %.3g" after before)
    true (after < 0.5 *. before)

let test_stat_beats_or_ties_det () =
  List.iter
    (fun circuit ->
      let d_det = design circuit in
      let tmax = 1.25 *. Sta.dmax d_det in
      let st_det = Det_opt.optimize (Det_opt.default_config ~tmax) d_det spec in
      let d_stat, model = stat_setup circuit in
      let st_stat = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d_stat model in
      Alcotest.(check bool) "both feasible" true
        (st_det.Det_opt.feasible && st_stat.Stat_opt.feasible);
      let leak d = Leak_ssta.mean (Leak_ssta.create d model) in
      let l_det = leak d_det and l_stat = leak d_stat in
      Alcotest.(check bool)
        (Printf.sprintf "stat %.4g <= 1.05 * det %.4g" l_stat l_det)
        true
        (l_stat <= 1.05 *. l_det))
    [ Generators.ripple_adder 16; Generators.alu 8 ]

let test_stat_knob_restrictions () =
  let d, model = stat_setup (Generators.ripple_adder 8) in
  let tmax = 1.3 *. Sta.dmax d in
  let sizes_before = Array.copy d.Design.size_idx in
  let cfg =
    { (Stat_opt.default_config ~tmax ~eta:0.95) with Stat_opt.allow_size = false }
  in
  let st = Stat_opt.optimize cfg d model in
  Alcotest.(check int) "no size moves" 0 st.Stat_opt.size_moves;
  Alcotest.(check (array int)) "sizes untouched" sizes_before d.Design.size_idx;
  let d2, model2 = stat_setup (Generators.ripple_adder 8) in
  let vth_before = Array.copy d2.Design.vth_idx in
  let cfg2 =
    { (Stat_opt.default_config ~tmax ~eta:0.95) with Stat_opt.allow_vth = false }
  in
  let st2 = Stat_opt.optimize cfg2 d2 model2 in
  Alcotest.(check int) "no vth moves" 0 st2.Stat_opt.vth_moves;
  Alcotest.(check (array int)) "vth untouched" vth_before d2.Design.vth_idx

let test_stat_deterministic () =
  let run () =
    let d, model = stat_setup (Generators.ripple_adder 16) in
    let tmax = 1.25 *. Sta.dmax d in
    let _ = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d model in
    (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx)
  in
  let v1, s1 = run () in
  let v2, s2 = run () in
  Alcotest.(check (array int)) "same vth" v1 v2;
  Alcotest.(check (array int)) "same sizes" s1 s2

let test_stat_tight_yield_target () =
  (* very strict yield: the optimizer must stay conservative *)
  let d, model = stat_setup (Generators.ripple_adder 16) in
  let tmax = 1.25 *. Sta.dmax d in
  let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.999) d model in
  Alcotest.(check bool) "feasible" true st.Stat_opt.feasible;
  Alcotest.(check bool) "yield >= 0.999" true (st.Stat_opt.final_yield >= 0.999 -. 1e-9)

let test_stat_loose_beats_tight () =
  let leak_at eta =
    let d, model = stat_setup (Generators.alu 8) in
    let tmax = 1.2 *. Sta.dmax d in
    let _ = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta) d model in
    Leak_ssta.mean (Leak_ssta.create d model)
  in
  let loose = leak_at 0.80 and tight = leak_at 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "leak(eta=0.80)=%.4g <= leak(eta=0.99)=%.4g" loose tight)
    true (loose <= tight +. 1e-9)

let test_stat_infeasible_start_repair () =
  (* at a tight constraint the initial yield is below target; the
     optimizer must first repair it (mult8 at 1.10 starts ~0.93) *)
  let d, model = stat_setup (Generators.array_multiplier 8) in
  let tmax = 1.10 *. Sta.dmax d in
  let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d model in
  Alcotest.(check bool) "repaired and feasible" true st.Stat_opt.feasible

(* ---------- Lr_opt ---------- *)

let test_lr_feasible_and_reduces () =
  List.iter
    (fun circuit ->
      let d = design circuit in
      let before = Design.total_leak_nominal d in
      let tmax = 1.25 *. Sta.dmax d in
      let st = Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax) d spec in
      Alcotest.(check bool) "feasible" true st.Sl_opt.Lr_opt.feasible;
      Alcotest.(check bool) "corner met" true (st.Sl_opt.Lr_opt.corner_dmax <= tmax +. 1e-6);
      let after = Design.total_leak_nominal d in
      Alcotest.(check bool)
        (Printf.sprintf "leak %.3g < %.3g" after before)
        true (after < before))
    [ Generators.ripple_adder 16; Generators.alu 8 ]

let test_lr_beats_or_ties_greedy_corner () =
  (* the LR warm start + greedy polish can never be worse than the greedy
     alone by more than noise, and usually wins clearly *)
  List.iter
    (fun circuit ->
      let d_lr = design circuit in
      let tmax = 1.25 *. Sta.dmax d_lr in
      let st_lr = Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax) d_lr spec in
      let d_det = design circuit in
      let st_det = Det_opt.optimize (Det_opt.default_config ~tmax) d_det spec in
      Alcotest.(check bool) "both feasible" true
        (st_lr.Sl_opt.Lr_opt.feasible && st_det.Det_opt.feasible);
      let l_lr = Design.total_leak_nominal d_lr in
      let l_det = Design.total_leak_nominal d_det in
      Alcotest.(check bool)
        (Printf.sprintf "LR %.4g <= 1.1 * greedy %.4g" l_lr l_det)
        true
        (l_lr <= 1.1 *. l_det))
    [ Generators.ripple_adder 16; Generators.alu 8 ]

let test_lr_corner_verified_independently () =
  let d = design (Generators.ripple_adder 16) in
  let tmax = 1.25 *. Sta.dmax d in
  let cfg = Sl_opt.Lr_opt.default_config ~tmax in
  let st = Sl_opt.Lr_opt.optimize cfg d spec in
  Alcotest.(check bool) "feasible" true st.Sl_opt.Lr_opt.feasible;
  let k = cfg.Sl_opt.Lr_opt.corner_k in
  let n = Circuit.num_gates d.Design.circuit in
  let dvth = Array.make n (k *. spec.Spec.sigma_vth) in
  let dl = Array.make n (k *. spec.Spec.sigma_l) in
  Alcotest.(check bool) "independent corner check" true
    (Sta.dmax ~dvth ~dl d <= tmax +. 1e-6)

let test_lr_deterministic () =
  let run () =
    let d = design (Generators.ripple_adder 16) in
    let tmax = 1.25 *. Sta.dmax d in
    let _ = Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax) d spec in
    (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx)
  in
  let v1, s1 = run () in
  let v2, s2 = run () in
  Alcotest.(check (array int)) "same vth" v1 v2;
  Alcotest.(check (array int)) "same sizes" s1 s2

(* ---------- Anneal ---------- *)

let test_anneal_feasible_and_improves () =
  let d, model = stat_setup (Generators.ripple_adder 8) in
  let tmax = 1.25 *. Sta.dmax d in
  let before = Leak_ssta.mean (Leak_ssta.create d model) in
  let cfg = { (Anneal.default_config ~tmax ~eta:0.95) with Anneal.iterations = 3000 } in
  let st = Anneal.optimize cfg d model in
  Alcotest.(check bool) "feasible" true st.Anneal.feasible;
  let after = Leak_ssta.mean (Leak_ssta.create d model) in
  Alcotest.(check bool) "improved" true (after < before)

let test_anneal_deterministic_in_seed () =
  let run seed =
    let d, model = stat_setup (Benchmarks.c17 ()) in
    let tmax = 1.25 *. Sta.dmax d in
    let cfg =
      { (Anneal.default_config ~tmax ~eta:0.95) with Anneal.iterations = 500; seed }
    in
    let _ = Anneal.optimize cfg d model in
    (Array.copy d.Design.vth_idx, Array.copy d.Design.size_idx)
  in
  let v1, s1 = run 7 in
  let v2, s2 = run 7 in
  Alcotest.(check (array int)) "same vth" v1 v2;
  Alcotest.(check (array int)) "same sizes" s1 s2

let test_anneal_proposed_counts_real_proposals () =
  (* [proposed] must count only iterations that evaluated a real proposal:
     boundary picks (no legal neighbour) are skipped, so proposed <
     iterations on a design that starts at knob extremes, and accepted can
     never exceed it.  The exact counts are pinned — the RNG stream and
     the Metropolis walk are fully deterministic in the seed. *)
  let d, model = stat_setup (Benchmarks.c17 ()) in
  let tmax = 1.25 *. Sta.dmax d in
  let cfg = { (Anneal.default_config ~tmax ~eta:0.95) with Anneal.iterations = 500 } in
  let st = Anneal.optimize cfg d model in
  Alcotest.(check bool) "proposed < iterations" true (st.Anneal.proposed < 500);
  Alcotest.(check bool) "accepted <= proposed" true
    (st.Anneal.accepted <= st.Anneal.proposed);
  Alcotest.(check int) "proposed pinned" 458 st.Anneal.proposed;
  Alcotest.(check int) "accepted pinned" 77 st.Anneal.accepted

let test_greedy_close_to_anneal () =
  (* the greedy optimizer should be within 2x of a long annealing run on a
     small circuit (it is usually better) *)
  let d_g, model = stat_setup (Benchmarks.c17 ()) in
  let tmax = 1.25 *. Sta.dmax d_g in
  let _ = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d_g model in
  let d_a, model_a = stat_setup (Benchmarks.c17 ()) in
  let cfg = { (Anneal.default_config ~tmax ~eta:0.95) with Anneal.iterations = 8000 } in
  let st_a = Anneal.optimize cfg d_a model_a in
  Alcotest.(check bool) "anneal feasible" true st_a.Anneal.feasible;
  let lg = Leak_ssta.mean (Leak_ssta.create d_g model) in
  let la = Leak_ssta.mean (Leak_ssta.create d_a model_a) in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.4g <= 2x anneal %.4g" lg la)
    true (lg <= 2.0 *. la)

(* ---------- deterministic trajectory pins ----------

   Det_opt and Lr_opt (whose polish runs Det_opt) both walk Inc_sta at the
   3-sigma corner; any change to the incremental timing engine that is not
   bit-exact shows up here as a different move count, corner delay or
   final assignment.  Set-up as the statistical seed pins: tmax = 1.25·D0,
   default config.  [corner_dmax] is compared as IEEE bits and the final
   assignment as an MD5 of the full per-gate (vth, size) arrays. *)

type det_pin = {
  dp_name : string;
  dp_trials : int;
  dp_vth : int;
  dp_size : int;
  dp_dmax_bits : string;
  dp_digest : string;
  lp_dmax_bits : string;
  lp_digest : string;
}

let det_pins =
  [
    {
      dp_name = "c17";
      dp_trials = 34;
      dp_vth = 2;
      dp_size = 4;
      dp_dmax_bits = "40674523a3d786b8";
      dp_digest = "591a356b6e2eb1c5addfcc86b728863b";
      lp_dmax_bits = "40674523a3d786b8";
      lp_digest = "591a356b6e2eb1c5addfcc86b728863b";
    };
    {
      dp_name = "add32";
      dp_trials = 2872;
      dp_vth = 130;
      dp_size = 222;
      dp_dmax_bits = "40b00fa57f53da44";
      dp_digest = "fee0fde549290a71a29ef032175149d4";
      lp_dmax_bits = "40b01021cf20de85";
      lp_digest = "cdf360d47bda3a1b074209e39f155be0";
    };
    {
      dp_name = "mult8";
      dp_trials = 2916;
      dp_vth = 244;
      dp_size = 423;
      dp_dmax_bits = "40abf3fefc7f86a3";
      dp_digest = "9fda9b03ef4c74e94cbac83db3976383";
      lp_dmax_bits = "40abf3fefc7f86a3";
      lp_digest = "9fda9b03ef4c74e94cbac83db3976383";
    };
    (* most of its det trials are reverted, each through the undo path *)
    {
      dp_name = "mult16";
      dp_trials = 14569;
      dp_vth = 1100;
      dp_size = 1979;
      dp_dmax_bits = "40bf2d7d4e3dee5e";
      dp_digest = "1b696139ec3bda6b70b63c01a3524d8a";
      lp_dmax_bits = "40bf2d7d4e3dee5e";
      lp_digest = "1b696139ec3bda6b70b63c01a3524d8a";
    };
  ]

let bits_hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let full_digest (d : Design.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Digest.to_hex
    (Digest.string (ints d.Design.vth_idx ^ "/" ^ ints d.Design.size_idx))

let test_det_lr_pins () =
  List.iter
    (fun p ->
      let s = Setup.of_benchmark p.dp_name in
      let tmax = Setup.tmax s ~factor:1.25 in
      let tag what = Printf.sprintf "%s: %s" p.dp_name what in
      let d = Setup.fresh_design s in
      let st = Det_opt.optimize (Det_opt.default_config ~tmax) d s.Setup.spec in
      Alcotest.(check int) (tag "det trials") p.dp_trials st.Det_opt.trials;
      Alcotest.(check int) (tag "det vth_moves") p.dp_vth st.Det_opt.vth_moves;
      Alcotest.(check int) (tag "det size_moves") p.dp_size st.Det_opt.size_moves;
      Alcotest.(check string) (tag "det corner_dmax bits") p.dp_dmax_bits
        (bits_hex st.Det_opt.corner_dmax);
      Alcotest.(check string) (tag "det digest") p.dp_digest (full_digest d);
      let d = Setup.fresh_design s in
      let st = Sl_opt.Lr_opt.optimize (Sl_opt.Lr_opt.default_config ~tmax) d s.Setup.spec in
      Alcotest.(check string) (tag "lr corner_dmax bits") p.lp_dmax_bits
        (bits_hex st.Sl_opt.Lr_opt.corner_dmax);
      Alcotest.(check string) (tag "lr digest") p.lp_digest (full_digest d))
    det_pins

let prop_stat_never_violates =
  QCheck.Test.make ~name:"stat-opt result always meets eta (random dags)" ~count:5
    QCheck.(int_range 1 100)
    (fun seed ->
      let c = Generators.random_dag ~seed ~gates:150 ~inputs:16 ~outputs:8 in
      let d = design c in
      let model = Model.build spec c in
      let tmax = 1.25 *. Sta.dmax d in
      let st = Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.9) d model in
      (not st.Stat_opt.feasible) || st.Stat_opt.final_yield >= 0.9 -. 1e-9)

(* The ranking sorts slot indices by radix keys of their scores; its
   order must be exactly the documented record order.  Scores come from a
   pool of awkward floats — NaNs (with the sign bit, with a payload), both
   zeros, subnormals, ±1e308, ±infinity and repeats — or are drawn at
   random, negatives included; live sets have 0, 1, 2 or more than 256
   slots, often both moves of one gate, and enter the sort shuffled.
   Scores are a function of the slot, so equal slot sequences mean equal
   score bits. *)
let prop_slot_sort_matches_reference =
  QCheck.Test.make ~name:"slot sort = compare_candidates" ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let live_count =
        match seed mod 4 with 0 -> 0 | 1 -> 1 | 2 -> 2 | _ -> 257 + Rng.int rng 400
      in
      let gates = 1 + (live_count / 2) + Rng.int rng 200 in
      let pool =
        [|
          nan; -.nan; Int64.float_of_bits 0x7FF0000000000001L; 0.0; -0.0; 5e-324;
          -5e-324; 1e-310; -1e-310; 1e308; -1e308; infinity; neg_infinity; 0.5; 1.0;
          -1.0; 2.0; 1e12;
        |]
      in
      let slots = Array.init (2 * gates) Fun.id in
      Rng.shuffle rng slots;
      let idx = Array.sub slots 0 live_count in
      let score = Array.make (2 * gates) 0.0 in
      Array.iter
        (fun slot ->
          score.(slot) <-
            (if Rng.int rng 2 = 0 then pool.(Rng.int rng (Array.length pool))
             else Rng.float rng 4.0 -. 2.0))
        idx;
      let candidate slot : Sl_opt.Opt_core.candidate =
        {
          score = score.(slot);
          kind = (if slot land 1 = 1 then `Size else `Vth);
          gate = slot / 2;
          est_cost = 0.0;
        }
      in
      let reference =
        List.sort Sl_opt.Opt_core.compare_candidates (List.map candidate (Array.to_list idx))
      in
      Sl_opt.Opt_core.sort_slots score idx;
      List.map (fun (c : Sl_opt.Opt_core.candidate) -> (c.gate, c.kind)) reference
      = List.map (fun slot -> (slot / 2, if slot land 1 = 1 then `Size else `Vth))
          (Array.to_list idx))

(* The ranking's cache is invisible.  Random sequences of what a run
   does to its state — moves of both kinds on gates and on a fanout of
   a gate, yield-only and full syncs, checkpoint rollbacks, a bulk
   restore with a rebuild (as the alternation phase does) and an
   extra-load edit — and after each step a warm [rank] returns exactly
   what a ranking from an empty cache returns: the same score and cost
   bits, gates and kinds, under random eligibility.  Each case runs one
   cone and register cones, jobs 1 and 2 (both circuits are wide enough
   for the parallel scan) and every sensitivity. *)
let prop_warm_rank_equals_cold =
  let module Core = Sl_opt.Opt_core in
  let module Hier = Sl_ssta.Hier in
  let circuits =
    lazy
      [
        (false, Generators.random_dag ~seed:11 ~gates:1100 ~inputs:40 ~outputs:24);
        ( true,
          Sl_netlist.Bench_format.parse_string ~sequential:`Cut ~name:"pipe"
            (Generators.seq_pipeline_bench ~stages:4 ~width:16 ~layers:16) );
      ]
  in
  let sensitivities =
    [
      Core.Stat_leak_per_yield; Core.Stat_leak_per_delay; Core.Nominal_leak_per_yield;
      Core.P99_leak_per_yield;
    ]
  in
  let bits x = Int64.bits_of_float x in
  (* the same slots in the same order, with the same score words and, for
     a reduction ranking, the same cost words *)
  let same direction (a : Core.ranked) (b : Core.ranked) =
    a.len = b.len
    && List.for_all
         (fun i ->
           let x = a.order.(i) and y = b.order.(i) in
           x = y
           && Int64.equal (bits a.score.(x)) (bits b.score.(y))
           && (direction = `Repair || Int64.equal (bits a.cost.(x)) (bits b.cost.(y))))
         (List.init a.len Fun.id)
  in
  let run_case seed (partition, c) jobs sensitivity =
    let rng = Rng.create seed in
    let model = Model.build Spec.default c in
    let d = design c in
    let tmax = 1.05 *. (Ssta.analyze d model).Ssta.circuit_delay.Sl_ssta.Canonical.mean in
    let p =
      {
        Core.tmax; eta = 0.9; sensitivity; allow_vth = true; allow_size = true; partition;
        jobs;
      }
    in
    let st = Core.create ~mode:"test" ~progress:ignore p d model in
    if partition && Hier.num_partitions st.Core.engine < 2 then
      QCheck.Test.fail_report "pipeline did not cut into cones";
    let lib = d.Design.lib in
    let ids = cells d in
    let cell () = ids.(Rng.int rng (Array.length ids)) in
    let is_cell g = (Circuit.gate c g).Circuit.kind <> Cell_kind.Pi in
    let move g =
      if Rng.int rng 2 = 0 then Core.set st `Vth g (Rng.int rng (Cell_lib.num_vth lib))
      else Core.set st `Size g (Rng.int rng (Cell_lib.num_sizes lib))
    in
    let saved_vth = Array.copy d.Design.vth_idx and saved_size = Array.copy d.Design.size_idx in
    for step = 1 to 12 do
      let op =
        match Rng.int rng 9 with
        | 0 | 1 ->
          move (cell ());
          "move"
        | 2 ->
          (* resize a fanout: the gate's load changes, its assignment not *)
          let g = cell () in
          let fo = List.filter is_cell (Array.to_list (Circuit.gate c g).Circuit.fanout) in
          (match fo with
          | [] -> move g
          | _ ->
            let f = List.nth fo (Rng.int rng (List.length fo)) in
            Core.set st `Size f (Rng.int rng (Cell_lib.num_sizes lib)));
          "fanout resize"
        | 3 ->
          Core.measure st;
          "measure"
        | 4 ->
          Core.sync st;
          "sync"
        | 5 ->
          Core.sync st;
          let cp = Hier.checkpoint st.Core.engine in
          let touched = List.init (1 + Rng.int rng 3) (fun _ -> cell ()) in
          let prev =
            List.map (fun g -> (g, d.Design.vth_idx.(g), d.Design.size_idx.(g))) touched
          in
          List.iter move touched;
          Core.measure st;
          List.iter
            (fun (g, v, s) ->
              Core.set ~timing:false st `Vth g v;
              Core.set ~timing:false st `Size g s)
            (List.rev prev);
          Core.rollback st cp;
          "checkpoint rollback"
        | 6 ->
          Array.blit saved_vth 0 d.Design.vth_idx 0 (Array.length saved_vth);
          Array.blit saved_size 0 d.Design.size_idx 0 (Array.length saved_size);
          Leak_ssta.refresh st.Core.leak;
          Core.rebuild st;
          "bulk restore"
        | 7 ->
          let g = cell () in
          Design.set_extra_load d g (Rng.float rng 4.0);
          Hier.update_gate st.Core.engine g;
          "extra load"
        | _ ->
          Array.blit d.Design.vth_idx 0 saved_vth 0 (Array.length saved_vth);
          Array.blit d.Design.size_idx 0 saved_size 0 (Array.length saved_size);
          "save"
      in
      let eligible =
        if Rng.int rng 3 = 0 then
          let salt = Rng.int rng 5 in
          fun g k -> (g + salt + if k = `Size then 1 else 0) mod 5 <> 0
        else fun _ _ -> true
      in
      let direction = if Rng.int rng 6 = 0 then `Repair else `Reduce in
      let warm = Core.rank ~eligible ~direction st in
      let cold = Core.rank_cold ~eligible ~direction st in
      if not (same direction warm cold) then
        QCheck.Test.fail_reportf "step %d (%s), jobs %d, %s: warm rank differs from cold"
          step op jobs
          (if partition then "register cones" else "one cone")
    done;
    true
  in
  QCheck.Test.make ~name:"warm rank = cold rank" ~count:3 QCheck.(int_range 1 100_000)
    (fun seed ->
      List.for_all
        (fun circuit ->
          List.for_all
            (fun jobs ->
              List.for_all (fun sens -> run_case seed circuit jobs sens) sensitivities)
            [ 1; 2 ])
        (Lazy.force circuits))

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  [
    ( "opt.inc_sta",
      Alcotest.test_case "corner shift" `Quick test_inc_corner_shift
      :: qc
           [
             matches_full_sta ~undo:false;
             slacks_match_analyze ~undo:false;
             matches_full_sta ~undo:true;
             slacks_match_analyze ~undo:true;
           ] );
    ( "opt.det",
      [
        Alcotest.test_case "respects corner timing" `Quick test_det_respects_corner_timing;
        Alcotest.test_case "reduces leakage" `Quick test_det_reduces_leakage;
        Alcotest.test_case "deterministic" `Quick test_det_deterministic;
        Alcotest.test_case "knob restriction" `Quick test_det_vth_only_respects_knobs;
        Alcotest.test_case "infeasible reported" `Quick test_det_infeasible_reported;
        Alcotest.test_case "det and lr trajectory pins" `Quick test_det_lr_pins;
      ] );
    ( "opt.stat",
      [
        Alcotest.test_case "meets yield target" `Slow test_stat_meets_yield_target;
        Alcotest.test_case "reduces statistical leak" `Quick test_stat_reduces_statistical_leak;
        Alcotest.test_case "beats or ties det" `Quick test_stat_beats_or_ties_det;
        Alcotest.test_case "knob restrictions" `Quick test_stat_knob_restrictions;
        Alcotest.test_case "deterministic" `Quick test_stat_deterministic;
        Alcotest.test_case "tight yield target" `Quick test_stat_tight_yield_target;
        Alcotest.test_case "loose eta beats tight" `Quick test_stat_loose_beats_tight;
        Alcotest.test_case "infeasible start repaired" `Quick test_stat_infeasible_start_repair;
      ]
      @ qc
          [
            prop_stat_never_violates;
            prop_slot_sort_matches_reference;
            prop_warm_rank_equals_cold;
          ] );
    ( "opt.lr",
      [
        Alcotest.test_case "feasible and reduces" `Quick test_lr_feasible_and_reduces;
        Alcotest.test_case "beats or ties greedy" `Quick test_lr_beats_or_ties_greedy_corner;
        Alcotest.test_case "corner verified" `Quick test_lr_corner_verified_independently;
        Alcotest.test_case "deterministic" `Quick test_lr_deterministic;
      ] );
    ( "opt.anneal",
      [
        Alcotest.test_case "feasible and improves" `Quick test_anneal_feasible_and_improves;
        Alcotest.test_case "deterministic in seed" `Quick test_anneal_deterministic_in_seed;
        Alcotest.test_case "proposed counts real proposals" `Quick
          test_anneal_proposed_counts_real_proposals;
        Alcotest.test_case "greedy close to anneal" `Slow test_greedy_close_to_anneal;
      ] );
  ]
