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

(* marks an unfilled arity inside a row; compared physically *)
let absent = { res = [||]; self = [||]; cap = [||] }

type t = {
  lib : Cell_lib.t;
  rows : entry array array;  (* [kind_index kind].(arity) *)
  mutable frozen : bool;
}

let kind_index = function
  | Cell_kind.Pi -> 0
  | Cell_kind.Buf -> 1
  | Cell_kind.Not -> 2
  | Cell_kind.And -> 3
  | Cell_kind.Nand -> 4
  | Cell_kind.Or -> 5
  | Cell_kind.Nor -> 6
  | Cell_kind.Xor -> 7
  | Cell_kind.Xnor -> 8

let create lib = { lib; rows = Array.make 9 [||]; frozen = false }

(* A miss: fill the entry and store it, growing the kind's row to reach
   [arity] — or refuse on a frozen table. *)
let fill t kind ~arity =
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
  let k = kind_index kind in
  let row = t.rows.(k) in
  if arity >= Array.length row then begin
    let grown = Array.make (arity + 1) absent in
    Array.blit row 0 grown 0 (Array.length row);
    t.rows.(k) <- grown
  end;
  t.rows.(k).(arity) <- e;
  e

let find t kind ~arity =
  let row = t.rows.(kind_index kind) in
  if 0 <= arity && arity < Array.length row then row.(arity) else absent

let entry t kind ~arity =
  let e = find t kind ~arity in
  if e != absent then e else fill t kind ~arity

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
      || find t g.Circuit.kind ~arity:(Array.length g.Circuit.fanin) != absent)
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
  else Design.delay_sens d id ~d0:(gate_delay t d id)
