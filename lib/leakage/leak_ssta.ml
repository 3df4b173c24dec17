module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Model = Sl_variation.Model

(* Each gate's terms are cached with the threshold and size they came
   from; a gate whose assignment still matches costs no [exp].  PIs keep
   zero terms. *)
type t = {
  design : Design.t;
  model : Model.t;
  r2 : float;                (* independent log-variance per gate (constant) *)
  xm : float array;          (* per gate: E X = exp(m + r²/2), m = ln nominal *)
  vx : float array;          (* per gate: Var X *)
  em : float array;          (* per gate: exp m, the nominal leakage *)
  seen_vth : int array;      (* the assignment the terms came from; −1 = stale *)
  seen_size : int array;
  is_cell : bool array;
  cell : int array;          (* grid cell per gate *)
  q : float array;           (* per grid cell: |u_c|² *)
  eq : float array;          (* per grid cell: exp(q/2) *)
  uu : float array array;    (* pairwise u_c·u_d *)
  a : float array;           (* per cell: Σ_g exp(m_g + r²/2) *)
  w : float array;           (* per cell: Σ_g Var X_g *)
  mutable nom : float;       (* Σ_g exp(m_g) *)
}

(* ln I coefficients: u_g = b_v·vth_coeffs + b_l·l_coeffs; b_v, b_l are
   cell-independent, so u depends only on the grid cell. *)
let cell_vectors design model =
  let lib = design.Design.lib in
  let bv = Cell_lib.dln_leak_dvth lib and bl = Cell_lib.dln_leak_dl lib in
  let n = Circuit.num_gates design.Design.circuit in
  let ncells = Model.num_cells model in
  let npcs = Model.num_pcs model in
  let us = Array.make ncells [||] in
  for id = 0 to n - 1 do
    let c = Model.cell_index model id in
    if Array.length us.(c) = 0 then begin
      let cv = Model.vth_coeffs model id and cl = Model.l_coeffs model id in
      us.(c) <- Array.init npcs (fun k -> (bv *. cv.(k)) +. (bl *. cl.(k)))
    end
  done;
  (* cells with no gates keep a zero vector *)
  Array.iteri (fun c u -> if Array.length u = 0 then us.(c) <- Array.make npcs 0.0) us;
  us

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let ln_nominal design id =
  let g = Circuit.gate design.Design.circuit id in
  Cell_lib.ln_leak_nominal design.Design.lib g.Circuit.kind
    ~arity:(Array.length g.Circuit.fanin)
    ~size_idx:design.Design.size_idx.(id) ~vth_idx:design.Design.vth_idx.(id)

(* E X and Var X for X = exp(m + r·R): the per-gate lognormal factor from
   the independent variation component. *)
let ex m r2 = exp (m +. (r2 /. 2.0))
let varx m r2 = exp ((2.0 *. m) +. r2) *. (exp r2 -. 1.0)

let set_terms t id =
  let m = ln_nominal t.design id in
  t.xm.(id) <- ex m t.r2;
  t.vx.(id) <- varx m t.r2;
  t.em.(id) <- exp m;
  t.seen_vth.(id) <- t.design.Design.vth_idx.(id);
  t.seen_size.(id) <- t.design.Design.size_idx.(id)

(* Re-derive the stale gates' terms, then fold every cell's sums afresh
   in id order: the additions a fold over freshly derived terms makes,
   so the words do not depend on the update history. *)
let refresh t =
  let d = t.design in
  Array.fill t.a 0 (Array.length t.a) 0.0;
  Array.fill t.w 0 (Array.length t.w) 0.0;
  let nom = ref 0.0 in
  for id = 0 to Array.length t.xm - 1 do
    if t.is_cell.(id) then begin
      if
        d.Design.vth_idx.(id) <> t.seen_vth.(id)
        || d.Design.size_idx.(id) <> t.seen_size.(id)
      then set_terms t id;
      let c = t.cell.(id) in
      t.a.(c) <- t.a.(c) +. t.xm.(id);
      t.w.(c) <- t.w.(c) +. t.vx.(id);
      nom := !nom +. t.em.(id)
    end
  done;
  t.nom <- !nom

let create design model =
  let lib = design.Design.lib in
  let bv = Cell_lib.dln_leak_dvth lib and bl = Cell_lib.dln_leak_dl lib in
  let rv = bv *. Model.vth_rnd_sigma model and rl = bl *. Model.l_rnd_sigma model in
  let r2 = (rv *. rv) +. (rl *. rl) in
  let n = Circuit.num_gates design.Design.circuit in
  let ncells = Model.num_cells model in
  let us = cell_vectors design model in
  let q = Array.map (fun u -> dot u u) us in
  let uu = Array.init ncells (fun c -> Array.init ncells (fun d -> dot us.(c) us.(d))) in
  let is_cell =
    Array.map
      (fun (g : Circuit.gate) -> g.Circuit.kind <> Cell_kind.Pi)
      design.Design.circuit.Circuit.gates
  in
  let t =
    {
      design;
      model;
      r2;
      xm = Array.make n 0.0;
      vx = Array.make n 0.0;
      em = Array.make n 0.0;
      seen_vth = Array.make n (-1);
      seen_size = Array.make n (-1);
      is_cell;
      cell = Array.init n (fun id -> Model.cell_index model id);
      q;
      eq = Array.map (fun q -> exp (q /. 2.0)) q;
      uu;
      a = Array.make ncells 0.0;
      w = Array.make ncells 0.0;
      nom = 0.0;
    }
  in
  refresh t;
  t

let mean_of t a =
  let acc = ref 0.0 in
  Array.iteri (fun c ac -> acc := !acc +. (t.eq.(c) *. ac)) a;
  !acc

let variance_of t a w =
  let ncells = Array.length a in
  let acc = ref 0.0 in
  for c = 0 to ncells - 1 do
    (* Var S_c = e^{2q}·W_c + A_c²·(e^{2q} − e^{q}) *)
    let q = t.q.(c) in
    acc :=
      !acc
      +. (exp (2.0 *. q) *. w.(c))
      +. (a.(c) *. a.(c) *. (exp (2.0 *. q) -. exp q));
    (* Cov(S_c, S_d) = E S_c · E S_d · (e^{u_c·u_d} − 1) *)
    for d = c + 1 to ncells - 1 do
      let esc = t.eq.(c) *. a.(c) in
      let esd = t.eq.(d) *. a.(d) in
      acc := !acc +. (2.0 *. esc *. esd *. (exp t.uu.(c).(d) -. 1.0))
    done
  done;
  Float.max 0.0 !acc

let mean t = mean_of t t.a
let variance t = variance_of t t.a t.w

let std t = sqrt (variance t)
let nominal t = t.nom

let distribution t = Lognormal.of_moments ~mean:(mean t) ~variance:(variance t)
let quantile t p = Lognormal.quantile (distribution t) p

let gate_mean t id =
  if not t.is_cell.(id) then 0.0
  else t.xm.(id) *. t.eq.(t.cell.(id))

(* O(1) drift arithmetic: the sums move by the new terms less the cached
   old ones.  These updates do not undo exactly; the next [refresh]
   re-folds every sum. *)
let update_gate t id =
  if t.is_cell.(id) then begin
    let c = t.cell.(id) in
    let x_old = t.xm.(id) and v_old = t.vx.(id) and e_old = t.em.(id) in
    set_terms t id;
    t.a.(c) <- t.a.(c) +. t.xm.(id) -. x_old;
    t.w.(c) <- t.w.(c) +. t.vx.(id) -. v_old;
    t.nom <- t.nom +. t.em.(id) -. e_old
  end

let ln_if t id ~vth_idx ~size_idx =
  let g = Circuit.gate t.design.Design.circuit id in
  Cell_lib.ln_leak_nominal t.design.Design.lib g.Circuit.kind
    ~arity:(Array.length g.Circuit.fanin) ~size_idx ~vth_idx

let mean_shift_if t id ~vth_idx ~size_idx =
  if not t.is_cell.(id) then 0.0
  else begin
    let m_new = ln_if t id ~vth_idx ~size_idx in
    t.eq.(t.cell.(id)) *. (ex m_new t.r2 -. t.xm.(id))
  end

let quantile_if t id ~vth_idx ~size_idx ~p =
  if not t.is_cell.(id) then quantile t p
  else begin
    let m_new = ln_if t id ~vth_idx ~size_idx in
    let c = t.cell.(id) in
    let a' = Array.copy t.a and w' = Array.copy t.w in
    a'.(c) <- a'.(c) +. ex m_new t.r2 -. t.xm.(id);
    w'.(c) <- w'.(c) +. varx m_new t.r2 -. t.vx.(id);
    let mean' = mean_of t a' and var' = variance_of t a' w' in
    Lognormal.quantile (Lognormal.of_moments ~mean:mean' ~variance:var') p
  end
