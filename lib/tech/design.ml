module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind

type t = {
  lib : Cell_lib.t;
  circuit : Circuit.t;
  vth_idx : int array;
  size_idx : int array;
  extra_load : float array;
}

let create ?(vth_idx = 0) ?(size_idx = 0) lib circuit =
  if vth_idx < 0 || vth_idx >= Cell_lib.num_vth lib then
    invalid_arg "Design.create: vth_idx out of range";
  if size_idx < 0 || size_idx >= Cell_lib.num_sizes lib then
    invalid_arg "Design.create: size_idx out of range";
  let n = Circuit.num_gates circuit in
  {
    lib;
    circuit;
    vth_idx = Array.make n vth_idx;
    size_idx = Array.make n size_idx;
    extra_load = Array.make n 0.0;
  }

let copy d =
  {
    d with
    vth_idx = Array.copy d.vth_idx;
    size_idx = Array.copy d.size_idx;
    extra_load = Array.copy d.extra_load;
  }

let check_cell d id what =
  let g = Circuit.gate d.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then
    invalid_arg (Printf.sprintf "Design.%s: gate %d is a primary input" what id)

let set_vth d id v =
  check_cell d id "set_vth";
  if v < 0 || v >= Cell_lib.num_vth d.lib then
    invalid_arg "Design.set_vth: index out of range";
  d.vth_idx.(id) <- v

let set_size d id s =
  check_cell d id "set_size";
  if s < 0 || s >= Cell_lib.num_sizes d.lib then
    invalid_arg "Design.set_size: index out of range";
  d.size_idx.(id) <- s

let set_extra_load d id c =
  check_cell d id "set_extra_load";
  if not (Float.is_finite c) || c < 0.0 then
    invalid_arg "Design.set_extra_load: load must be finite and non-negative";
  d.extra_load.(id) <- c

let arity d id = Array.length (Circuit.gate d.circuit id).Circuit.fanin

let external_load d id =
  let g = Circuit.gate d.circuit id in
  let wire = d.lib.Cell_lib.tech.Tech.c_wire in
  let fanout_cap =
    Array.fold_left
      (fun acc fo ->
        let go = Circuit.gate d.circuit fo in
        (* one pin per occurrence: a gate listing this net on two pins
           loads it twice *)
        acc +. wire
        +. Cell_lib.input_cap d.lib go.Circuit.kind
             ~arity:(Array.length go.Circuit.fanin) ~size_idx:d.size_idx.(fo))
      0.0 g.Circuit.fanout
  in
  let po_cap = if Circuit.is_po d.circuit id then d.lib.Cell_lib.tech.Tech.c_out else 0.0 in
  (* the extra-load term is last so the untouched case (+. 0.0) leaves the
     historical sum bit-identical *)
  fanout_cap +. po_cap +. d.extra_load.(id)

let load d id =
  let g = Circuit.gate d.circuit id in
  let self =
    if g.Circuit.kind = Cell_kind.Pi then 0.0
    else
      Cell_lib.self_load d.lib g.Circuit.kind ~arity:(Array.length g.Circuit.fanin)
        ~size_idx:d.size_idx.(id)
  in
  external_load d id +. self

let gate_delay d id ~dvth ~dl =
  let g = Circuit.gate d.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then 0.0
  else begin
    let r =
      Cell_lib.drive_res d.lib g.Circuit.kind ~arity:(Array.length g.Circuit.fanin)
        ~size_idx:d.size_idx.(id) ~vth_idx:d.vth_idx.(id) ~dvth ~dl
    in
    r *. load d id
  end

let gate_leak d id ~dvth ~dl =
  let g = Circuit.gate d.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then 0.0
  else
    Cell_lib.leak_current d.lib g.Circuit.kind ~arity:(Array.length g.Circuit.fanin)
      ~size_idx:d.size_idx.(id) ~vth_idx:d.vth_idx.(id) ~dvth ~dl

let delay_sens d id ~d0 =
  let tech = d.lib.Cell_lib.tech in
  let overdrive = tech.Tech.vdd -. tech.Tech.vth.(d.vth_idx.(id)) in
  (* d = R·C with R ∝ (1 + dl)/(vdd − vth − dvth − k·dl)^α, hence at the
     nominal point: ∂d/∂dvth = d·α/(vdd−vth) and
     ∂d/∂dl = d·(1 + α·k_rolloff/(vdd−vth)). *)
  let dd_dvth = d0 *. tech.Tech.alpha /. overdrive in
  let dd_dl = d0 *. (1.0 +. (tech.Tech.alpha *. tech.Tech.k_rolloff /. overdrive)) in
  (dd_dvth, dd_dl)

let gate_delay_sens d id =
  let g = Circuit.gate d.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then (0.0, 0.0)
  else delay_sens d id ~d0:(gate_delay d id ~dvth:0.0 ~dl:0.0)

let total_leak_nominal d =
  let acc = ref 0.0 in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then
        acc := !acc +. gate_leak d g.Circuit.id ~dvth:0.0 ~dl:0.0)
    d.circuit.Circuit.gates;
  !acc

let count_high_vth d =
  let acc = ref 0 in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi && d.vth_idx.(g.Circuit.id) > 0 then incr acc)
    d.circuit.Circuit.gates;
  !acc

let total_width d =
  let acc = ref 0.0 in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then
        acc := !acc +. d.lib.Cell_lib.sizes.(d.size_idx.(g.Circuit.id)))
    d.circuit.Circuit.gates;
  !acc

let assignment_digest d =
  let nv = Cell_lib.num_vth d.lib and ns = Cell_lib.num_sizes d.lib in
  let vc = Array.make nv 0 and sc = Array.make ns 0 in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then begin
        vc.(d.vth_idx.(g.Circuit.id)) <- vc.(d.vth_idx.(g.Circuit.id)) + 1;
        sc.(d.size_idx.(g.Circuit.id)) <- sc.(d.size_idx.(g.Circuit.id)) + 1
      end)
    d.circuit.Circuit.gates;
  let fmt arr =
    String.concat "," (Array.to_list (Array.map string_of_int arr))
  in
  Printf.sprintf "v[%s]/s[%s]" (fmt vc) (fmt sc)
