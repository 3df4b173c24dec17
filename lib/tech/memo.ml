module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind

(* One entry per (kind, arity): every electrical quantity the timing path
   needs, pre-evaluated for the full size × vth grid.  The tables are
   filled by calling the Cell_lib functions themselves, so every memoized
   value is bit-identical to an uncached evaluation. *)
type entry = {
  res : float array;   (* drive_res at nominal, [size_idx * num_vth + vth_idx] *)
  self : float array;  (* self_load, [size_idx] *)
  cap : float array;   (* input_cap, [size_idx] *)
}

type t = {
  lib : Cell_lib.t;
  table : (Cell_kind.t * int, entry) Hashtbl.t;
  mutable frozen : bool;
}

let create lib = { lib; table = Hashtbl.create 64; frozen = false }

let entry t kind ~arity =
  let key = (kind, arity) in
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    if t.frozen then
      invalid_arg
        (Printf.sprintf "Memo: lookup miss on frozen table (%s/%d not prefilled)"
           (Cell_kind.to_string kind) arity);
    let ns = Cell_lib.num_sizes t.lib and nv = Cell_lib.num_vth t.lib in
    let e =
      {
        res =
          Array.init (ns * nv) (fun i ->
              Cell_lib.drive_res t.lib kind ~arity ~size_idx:(i / nv)
                ~vth_idx:(i mod nv) ~dvth:0.0 ~dl:0.0);
        self = Array.init ns (fun s -> Cell_lib.self_load t.lib kind ~arity ~size_idx:s);
        cap = Array.init ns (fun s -> Cell_lib.input_cap t.lib kind ~arity ~size_idx:s);
      }
    in
    Hashtbl.add t.table key e;
    e

let prefill t (d : Design.t) =
  if t.frozen then invalid_arg "Memo.prefill: table is frozen";
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then
        ignore (entry t g.Circuit.kind ~arity:(Array.length g.Circuit.fanin)))
    d.Design.circuit.Circuit.gates

let prefill_kinds t ~max_arity =
  if t.frozen then invalid_arg "Memo.prefill_kinds: table is frozen";
  if max_arity < 1 then invalid_arg "Memo.prefill_kinds: max_arity < 1";
  List.iter
    (fun kind ->
      let lo = Cell_kind.min_arity kind in
      let hi = Stdlib.min max_arity (Cell_kind.max_arity kind) in
      for arity = lo to hi do
        ignore (entry t kind ~arity)
      done)
    Cell_kind.all_cells

let freeze t = t.frozen <- true
let frozen t = t.frozen

let covers t (d : Design.t) =
  Array.for_all
    (fun (g : Circuit.gate) ->
      g.Circuit.kind = Cell_kind.Pi
      || Hashtbl.mem t.table (g.Circuit.kind, Array.length g.Circuit.fanin))
    d.Design.circuit.Circuit.gates

let drive_res t kind ~arity ~size_idx ~vth_idx =
  (entry t kind ~arity).res.((size_idx * Cell_lib.num_vth t.lib) + vth_idx)

let self_load t kind ~arity ~size_idx = (entry t kind ~arity).self.(size_idx)
let input_cap t kind ~arity ~size_idx = (entry t kind ~arity).cap.(size_idx)

(* Mirrors Design.external_load exactly: (fanout pins + wire) + PO cap +
   extra, with the same fold and summation order, reading caps from the
   tables.  It does not depend on the gate's own assignment. *)
let external_load t (d : Design.t) id =
  let c = d.Design.circuit in
  let wire = d.Design.lib.Cell_lib.tech.Tech.c_wire in
  let fanout_cap =
    Array.fold_left
      (fun acc fo ->
        let go = Circuit.gate c fo in
        acc +. wire
        +. input_cap t go.Circuit.kind ~arity:(Array.length go.Circuit.fanin)
             ~size_idx:d.Design.size_idx.(fo))
      0.0 (Circuit.gate c id).Circuit.fanout
  in
  let po_cap =
    if Circuit.is_po c id then d.Design.lib.Cell_lib.tech.Tech.c_out else 0.0
  in
  fanout_cap +. po_cap +. d.Design.extra_load.(id)

(* A non-PI gate's delay at (vth_idx, size_idx) given its external load:
   the same association as Design.load = ((fanout + po) + extra) + self *)
let delay_with t (g : Circuit.gate) ~ext ~vth_idx ~size_idx =
  let arity = Array.length g.Circuit.fanin in
  drive_res t g.Circuit.kind ~arity ~size_idx ~vth_idx
  *. (ext +. self_load t g.Circuit.kind ~arity ~size_idx)

let gate_delay_at t (d : Design.t) id ~vth_idx ~size_idx =
  let g = Circuit.gate d.Design.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then 0.0
  else delay_with t g ~ext:(external_load t d id) ~vth_idx ~size_idx

let gate_delay t d id =
  gate_delay_at t d id ~vth_idx:d.Design.vth_idx.(id) ~size_idx:d.Design.size_idx.(id)

(* both points share one external-load fold *)
let delay_delta t (d : Design.t) id ~vth_idx ~size_idx =
  let g = Circuit.gate d.Design.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then 0.0
  else begin
    let ext = external_load t d id in
    delay_with t g ~ext ~vth_idx ~size_idx
    -. delay_with t g ~ext ~vth_idx:d.Design.vth_idx.(id)
         ~size_idx:d.Design.size_idx.(id)
  end

let gate_delay_sens t (d : Design.t) id =
  let g = Circuit.gate d.Design.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then (0.0, 0.0)
  else begin
    let tech = d.Design.lib.Cell_lib.tech in
    let d0 = gate_delay t d id in
    let overdrive = tech.Tech.vdd -. tech.Tech.vth.(d.Design.vth_idx.(id)) in
    let dd_dvth = d0 *. tech.Tech.alpha /. overdrive in
    let dd_dl = d0 *. (1.0 +. (tech.Tech.alpha *. tech.Tech.k_rolloff /. overdrive)) in
    (dd_dvth, dd_dl)
  end
