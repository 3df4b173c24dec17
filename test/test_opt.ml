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

(* The ranking sorts slot indices over unboxed score arrays; its order
   must be exactly the documented record order.  Random candidate sets
   draw scores from a small pool (repeats), include free wins (infinity)
   and often put both moves on one gate; the live slots enter the sort in
   a shuffled order. *)
let prop_slot_sort_matches_reference =
  QCheck.Test.make ~name:"slot sort = compare_candidates" ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let gates = 1 + Rng.int rng 60 in
      let pool = [| 0.5; 1.0; 2.0; infinity; 1e12 |] in
      let score = Array.make (2 * gates) 0.0 in
      let live = ref [] in
      for slot = 0 to (2 * gates) - 1 do
        if Rng.int rng 3 > 0 then begin
          score.(slot) <-
            (if Rng.int rng 2 = 0 then pool.(Rng.int rng (Array.length pool))
             else Rng.float rng 4.0);
          live := slot :: !live
        end
      done;
      let idx = Array.of_list !live in
      for i = Array.length idx - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let x = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- x
      done;
      let candidate slot : Sl_opt.Opt_core.candidate =
        {
          score = score.(slot);
          kind = (if slot land 1 = 1 then `Size else `Vth);
          gate = slot / 2;
          est_cost = 0.0;
        }
      in
      let reference =
        List.sort Stat_opt.Private.compare_candidates (List.map candidate (Array.to_list idx))
      in
      Stat_opt.Private.sort_slots score idx;
      List.map candidate (Array.to_list idx) = reference)

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
      @ qc [ prop_stat_never_violates; prop_slot_sort_matches_reference ] );
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
