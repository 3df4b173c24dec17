module Circuit = Sl_netlist.Circuit
module Rng = Sl_util.Rng
module Matrix = Sl_util.Matrix

type t = {
  spec : Spec.t;
  num_pcs : int;
  (* one coefficient vector per grid cell; a gate reads its cell's *)
  vth_rows : float array array;
  l_rows : float array array;
  gate_cell : int array;
  occupied : int array;  (* cells holding at least one gate, ascending *)
  vth_rnd : float;
  l_rnd : float;
}

let spec t = t.spec
let num_pcs t = t.num_pcs
let vth_coeffs t id = t.vth_rows.(t.gate_cell.(id))
let l_coeffs t id = t.l_rows.(t.gate_cell.(id))
let num_cells t = Array.length t.vth_rows
let cell_index t id = t.gate_cell.(id)
let vth_rnd_sigma t = t.vth_rnd
let l_rnd_sigma t = t.l_rnd

(* Cholesky factor of the grid correlation matrix under the exponential
   kernel; row i is grid cell i's mixing weights over the spatial PCs. *)
let grid_chol grid corr_length =
  let g2 = grid * grid in
  let center k =
    let gx = k mod grid and gy = k / grid in
    ( (float_of_int gx +. 0.5) /. float_of_int grid,
      (float_of_int gy +. 0.5) /. float_of_int grid )
  in
  let cov = Matrix.create g2 g2 in
  for i = 0 to g2 - 1 do
    for j = 0 to g2 - 1 do
      let xi, yi = center i and xj, yj = center j in
      let d = sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)) in
      Matrix.set cov i j (exp (-.d /. corr_length))
    done
  done;
  Matrix.cholesky cov

(* Unit-variance spatial mixing rows, one per finest-level cell, for
   either correlation structure.  Returns (cells_per_side, dims, rows). *)
let spatial_rows spec =
  match spec.Spec.spatial with
  | Spec.Grid ->
    let grid = spec.Spec.grid in
    let g2 = grid * grid in
    let chol = grid_chol grid spec.Spec.corr_length in
    let rows =
      Array.init g2 (fun cell -> Array.init g2 (fun k -> Matrix.get chol cell k))
    in
    (grid, g2, rows)
  | Spec.Quadtree levels ->
    (* level l has 4^l cells; every level carries 1/levels of the spatial
       variance, so two gates correlate by the fraction of tree levels
       they share *)
    let side = 1 lsl levels in
    let dims = ref 0 in
    let offset = Array.make (levels + 1) 0 in
    for l = 1 to levels do
      offset.(l) <- !dims;
      dims := !dims + (1 lsl (2 * l))
    done;
    let w = 1.0 /. sqrt (float_of_int levels) in
    let rows =
      Array.init (side * side) (fun cell ->
          let gx = cell mod side and gy = cell / side in
          let v = Array.make !dims 0.0 in
          for l = 1 to levels do
            let shift = levels - l in
            let lx = gx lsr shift and ly = gy lsr shift in
            let idx = offset.(l) + (ly * (1 lsl l)) + lx in
            v.(idx) <- w
          done;
          v)
    in
    (side, !dims, rows)

let occupied_cells cells gate_cell =
  let used = Array.make cells false in
  Array.iter (fun c -> used.(c) <- true) gate_cell;
  Array.of_list (List.filter (fun c -> used.(c)) (List.init cells Fun.id))

let build ?placement spec circuit =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Model.build: " ^ msg));
  let side, sdims, srows = spatial_rows spec in
  let g2 = side * side in
  let num_pcs = 2 * (1 + sdims) in
  let placement =
    match placement with Some p -> p | None -> Placement.by_level circuit
  in
  let make_cell_rows ~sigma ~offset =
    (* one coefficient vector per cell: d2d entry + scaled spatial row *)
    let s_d2d = sigma *. sqrt spec.Spec.frac_d2d in
    let s_sp = sigma *. sqrt spec.Spec.frac_spatial in
    Array.init g2 (fun cell ->
        let v = Array.make num_pcs 0.0 in
        v.(offset) <- s_d2d;
        for k = 0 to sdims - 1 do
          v.(offset + 1 + k) <- s_sp *. srows.(cell).(k)
        done;
        v)
  in
  let gate_cell =
    Array.init (Circuit.num_gates circuit) (Placement.cell_of placement ~grid:side)
  in
  {
    spec;
    num_pcs;
    vth_rows = make_cell_rows ~sigma:spec.Spec.sigma_vth ~offset:0;
    l_rows = make_cell_rows ~sigma:spec.Spec.sigma_l ~offset:(1 + sdims);
    gate_cell;
    occupied = occupied_cells g2 gate_cell;
    vth_rnd = spec.Spec.sigma_vth *. sqrt spec.Spec.frac_random;
    l_rnd = spec.Spec.sigma_l *. sqrt spec.Spec.frac_random;
  }

(* Re-index the per-gate cell map for a sub-circuit whose gate [ids] map
   local id -> global id.  Coefficient rows are shared with the parent
   (they are read-only), and [num_pcs] is unchanged: the restricted view
   keeps every global PC, so correlation between gates of different
   restrictions is preserved exactly. *)
let restrict t ids =
  let gate_cell = Array.map (fun gid -> t.gate_cell.(gid)) ids in
  { t with gate_cell; occupied = occupied_cells (num_cells t) gate_cell }

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let correlation t g1 g2 param =
  let coeffs, rnd =
    match param with
    | `Vth -> (vth_coeffs t, t.vth_rnd)
    | `L -> (l_coeffs t, t.l_rnd)
  in
  let c1 = coeffs g1 and c2 = coeffs g2 in
  let cov = dot c1 c2 +. if g1 = g2 then rnd *. rnd else 0.0 in
  let v1 = dot c1 c1 +. (rnd *. rnd) in
  let v2 = dot c2 c2 +. (rnd *. rnd) in
  if v1 > 0.0 && v2 > 0.0 then cov /. sqrt (v1 *. v2) else 0.0

module Sample = struct
  type nonrec model = t

  type t = { z : float array; dvth : float array; dl : float array }

  (* one die's shared-PC part of ΔVth and ΔL, per grid cell, and its
     2n independent deviates, ΔVth's and ΔL's interleaved by gate *)
  type scratch = { cell_vth : float array; cell_l : float array; dev : float array }

  let zero (m : model) =
    let n = Array.length m.gate_cell in
    { z = Array.make m.num_pcs 0.0; dvth = Array.make n 0.0; dl = Array.make n 0.0 }

  let scratch (m : model) =
    {
      cell_vth = Array.make (num_cells m) 0.0;
      cell_l = Array.make (num_cells m) 0.0;
      dev = Array.make (2 * Array.length m.gate_cell) 0.0;
    }

  let length_is n = function None -> true | Some v -> Array.length v = n

  (* Every gate of a cell shares its coefficient row, so [dot row z] is
     one float per cell: project each occupied cell once, then add each
     gate's independent deviates, ΔVth's then ΔL's, in gate-id order.
     The deviates come from [Rng.gaussian_fill], the words of one
     [Rng.gaussian] call each in the same generator order. *)
  let fill ?row ?shift (m : model) sc rng s =
    let n = Array.length m.gate_cell and pcs = m.num_pcs in
    if Array.length s.z <> pcs || Array.length s.dvth <> n || Array.length s.dl <> n
       || Array.length sc.cell_vth <> num_cells m || Array.length sc.cell_l <> num_cells m
       || Array.length sc.dev <> 2 * n
    then invalid_arg "Model.Sample.fill: buffers do not match the model";
    if not (length_is pcs row && length_is pcs shift) then
      invalid_arg "Model.Sample.fill: PC vector length mismatch";
    (match row with
    | None -> Rng.gaussian_fill rng s.z 0 pcs
    | Some r -> Array.blit r 0 s.z 0 pcs);
    (match shift with
    | None -> ()
    | Some mu ->
      for k = 0 to pcs - 1 do
        s.z.(k) <- s.z.(k) +. mu.(k)
      done);
    for k = 0 to Array.length m.occupied - 1 do
      let cell = m.occupied.(k) in
      sc.cell_vth.(cell) <- dot m.vth_rows.(cell) s.z;
      sc.cell_l.(cell) <- dot m.l_rows.(cell) s.z
    done;
    let dev = sc.dev in
    Rng.gaussian_fill rng dev 0 (2 * n);
    for id = 0 to n - 1 do
      let cell = m.gate_cell.(id) in
      s.dvth.(id) <- sc.cell_vth.(cell) +. (m.vth_rnd *. dev.(2 * id));
      s.dl.(id) <- sc.cell_l.(cell) +. (m.l_rnd *. dev.((2 * id) + 1))
    done

  let draw (m : model) rng =
    let s = zero m in
    fill m (scratch m) rng s;
    s
end
