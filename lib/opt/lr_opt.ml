module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib

type config = { tmax : float; corner_k : float }

let default_config ~tmax = { tmax; corner_k = 3.0 }

(* Multiplier updates, coordinate-descent passes per update, and the
   exponent of the output multipliers' criticality reweighting. *)
let outer = 40
let inner = 2
let step = 1.0

type stats = {
  feasible : bool;
  iterations : int;
  corner_dmax : float;
  repair_moves : int;
}

(* Backward flow-conservation pass: each gate's incoming multiplier Λ_g is
   the total multiplier leaving it — its primary-output multiplier plus the
   shares of every fanout's Λ routed back through this arc.  Shares follow
   a softmax over fanin arrivals, so the most critical fanin carries most
   of the multiplier pressure. *)
let distribute (d : Design.t) inc ~lambda_po ~tau =
  let c = d.Design.circuit in
  let n = Circuit.num_gates c in
  let lambda = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let g = c.Circuit.gates.(i) in
    let out = lambda_po.(g.Circuit.id) +. lambda.(g.Circuit.id) in
    let k = Array.length g.Circuit.fanin in
    if k > 0 && out > 0.0 then begin
      let amax =
        Array.fold_left (fun a f -> Float.max a (Inc_sta.arrival inc f)) neg_infinity
          g.Circuit.fanin
      in
      let weights =
        Array.map (fun f -> exp ((Inc_sta.arrival inc f -. amax) /. tau)) g.Circuit.fanin
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      Array.iteri
        (fun j f -> lambda.(f) <- lambda.(f) +. (out *. weights.(j) /. total))
        g.Circuit.fanin
    end
  done;
  lambda

(* Coordinate descent: pick each gate's (vth, size) minimizing its local
   Lagrangian contribution — own leakage, own weighted delay, and the
   weighted delay of the fanins it loads. *)
let descend (d : Design.t) ~lambda ~dvth ~dl =
  let c = d.Design.circuit in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let changes = ref 0 in
  let local_cost id =
    let g = Circuit.gate c id in
    let own = Design.gate_delay d id ~dvth ~dl in
    let leak = Design.gate_leak d id ~dvth:0.0 ~dl:0.0 in
    let fanin_cost = ref 0.0 in
    Array.iter
      (fun f ->
        if lambda.(f) > 0.0 then
          fanin_cost := !fanin_cost +. (lambda.(f) *. Design.gate_delay d f ~dvth ~dl))
      g.Circuit.fanin;
    leak +. (lambda.(id) *. own) +. !fanin_cost
  in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then begin
        let id = g.Circuit.id in
        let v0 = d.Design.vth_idx.(id) and s0 = d.Design.size_idx.(id) in
        let best = ref (v0, s0) and best_cost = ref (local_cost id) in
        for v = 0 to num_vth - 1 do
          for s = 0 to num_sizes - 1 do
            if v <> v0 || s <> s0 then begin
              Design.set_vth d id v;
              Design.set_size d id s;
              let cost = local_cost id in
              if cost < !best_cost -. 1e-12 then begin
                best_cost := cost;
                best := (v, s)
              end
            end
          done
        done;
        let bv, bs = !best in
        Design.set_vth d id bv;
        Design.set_size d id bs;
        if bv <> v0 || bs <> s0 then incr changes
      end)
    c.Circuit.gates;
  !changes

let optimize cfg (d : Design.t) (spec : Sl_variation.Spec.t) =
  let dvth = cfg.corner_k *. spec.Sl_variation.Spec.sigma_vth in
  let dl = cfg.corner_k *. spec.Sl_variation.Spec.sigma_l in
  let inc = Inc_sta.create ~dvth ~dl d in
  let c = d.Design.circuit in
  let n = Circuit.num_gates c in
  (* per-PO multipliers, initialized so Λ·d and leakage are commensurate *)
  let lambda_po = Array.make n 0.0 in
  let init =
    Design.total_leak_nominal d
    /. (cfg.tmax *. float_of_int (Array.length c.Circuit.outputs))
  in
  Array.iter (fun id -> lambda_po.(id) <- init) c.Circuit.outputs;
  let tau = 0.02 *. cfg.tmax in
  let iterations = ref 0 in
  (* best feasible iterate seen: LR oscillates around the constraint
     boundary, so keep whatever feasible point had the least leakage *)
  let best_leak = ref infinity in
  let best_vth = Array.copy d.Design.vth_idx in
  let best_size = Array.copy d.Design.size_idx in
  let have_best = ref false in
  let record_if_better () =
    if Inc_sta.dmax inc <= cfg.tmax then begin
      let leak = Design.total_leak_nominal d in
      if leak < !best_leak then begin
        best_leak := leak;
        Array.blit d.Design.vth_idx 0 best_vth 0 n;
        Array.blit d.Design.size_idx 0 best_size 0 n;
        have_best := true
      end
    end
  in
  (* start from a corner-feasible point, exactly like the greedy baseline:
     the Lagrangian iteration then explores around the boundary instead of
     having to climb into feasibility on its own *)
  let initial_repair =
    if Inc_sta.dmax inc > cfg.tmax then
      Det_opt.repair_timing d inc ~tmax:cfg.tmax ~allow_size:true
    else 0
  in
  record_if_better ();
  (try
     for _ = 1 to outer do
       incr iterations;
       (* multiplicative subgradient on the POs: scale by how badly each
          output violates (or clears) the constraint *)
       Array.iter
         (fun id ->
           let ratio = Inc_sta.arrival inc id /. cfg.tmax in
           lambda_po.(id) <-
             Float.max 1e-9 (lambda_po.(id) *. (ratio ** step)))
         c.Circuit.outputs;
       let lambda = distribute d inc ~lambda_po ~tau in
       let changes = ref 0 in
       for _ = 1 to inner do
         changes := !changes + descend d ~lambda ~dvth ~dl
       done;
       Inc_sta.refresh inc;
       record_if_better ();
       if !changes = 0 && Inc_sta.dmax inc <= cfg.tmax then raise Exit
     done
   with Exit -> ());
  (* LR converges only approximately: first try the same exact repair the
     greedy baseline uses; if the final iterate is beyond repair, fall back
     to the best feasible iterate recorded above *)
  let repair_moves =
    if Inc_sta.dmax inc > cfg.tmax then
      Det_opt.repair_timing d inc ~tmax:cfg.tmax ~allow_size:true
    else 0
  in
  if Inc_sta.dmax inc > cfg.tmax && !have_best then begin
    Array.blit best_vth 0 d.Design.vth_idx 0 n;
    Array.blit best_size 0 d.Design.size_idx 0 n;
    Inc_sta.refresh inc
  end
  else if Inc_sta.dmax inc <= cfg.tmax then begin
    (* the repaired endpoint might still be worse than the best iterate *)
    record_if_better ();
    if !have_best && Design.total_leak_nominal d > !best_leak then begin
      Array.blit best_vth 0 d.Design.vth_idx 0 n;
      Array.blit best_size 0 d.Design.size_idx 0 n;
      Inc_sta.refresh inc
    end
  end;
  (* standard LR finishing move: the Lagrangian iterate is a global warm
     start; a greedy exact-feasibility pass mops up the remaining slack *)
  if Inc_sta.dmax inc <= cfg.tmax then begin
    let det_cfg =
      { (Det_opt.default_config ~tmax:cfg.tmax) with Det_opt.corner_k = cfg.corner_k }
    in
    ignore (Det_opt.optimize det_cfg d spec);
    Inc_sta.refresh inc
  end;
  {
    feasible = Inc_sta.dmax inc <= cfg.tmax;
    iterations = !iterations;
    corner_dmax = Inc_sta.dmax inc;
    repair_moves = initial_repair + repair_moves;
  }
