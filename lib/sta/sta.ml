module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Parallel = Sl_util.Parallel

(* scalar arrival propagation is ~10 ns/gate, so domains only pay off on
   very wide levels; far coarser than the canonical-form threshold *)
let default_par_threshold = 4096

type result = {
  delay : float array;
  arrival : float array;
  required : float array;
  slack : float array;
  dmax : float;
}

let loads (d : Design.t) =
  Array.map (fun (g : Circuit.gate) -> Design.load d g.Circuit.id) d.Design.circuit.Circuit.gates

let delays ?dvth ?dl (d : Design.t) =
  let n = Circuit.num_gates d.Design.circuit in
  let get arr i = match arr with None -> 0.0 | Some a -> a.(i) in
  Array.init n (fun id ->
      Design.gate_delay d id ~dvth:(get dvth id) ~dl:(get dl id))

(* inlined into [forward_gate], so a sweep stores each arrival unboxed *)
let[@inline] gate_arrival arrival delay (g : Circuit.gate) =
  let fanin = g.Circuit.fanin in
  let worst = ref 0.0 in
  for k = 0 to Array.length fanin - 1 do
    let a = arrival.(fanin.(k)) in
    if a > !worst then worst := a
  done;
  !worst +. delay.(g.Circuit.id)

let forward_gate arr delay (g : Circuit.gate) =
  if g.Circuit.kind <> Cell_kind.Pi then arr.(g.Circuit.id) <- gate_arrival arr delay g

(* Sequential forward sweep into [arr]; primary-input slots are never
   written, so a reused array must hold 0 there. *)
let forward_into circuit delay arr =
  let gates = circuit.Circuit.gates in
  for i = 0 to Array.length gates - 1 do
    forward_gate arr delay gates.(i)
  done

let arrivals ?(jobs = 1) ?(par_threshold = default_par_threshold) circuit delay =
  let n = Circuit.num_gates circuit in
  let arr = Array.make n 0.0 in
  if jobs <= 1 then forward_into circuit delay arr
  else
    (* same level-parallel schedule as Ssta.analyze: within a level every
       gate reads only lower-level slots and writes its own — identical
       words for every jobs value *)
    Array.iter
      (fun level ->
        Parallel.run_chunks ~jobs ~threshold:par_threshold
          ~n:(Array.length level) ~init:(fun () -> ())
          (fun () lo hi ->
            for k = lo to hi - 1 do
              forward_gate arr delay circuit.Circuit.gates.(level.(k))
            done))
      (Circuit.levels circuit);
  arr

let dmax_of_arrivals circuit arrival =
  let outputs = circuit.Circuit.outputs in
  let acc = ref 0.0 in
  for k = 0 to Array.length outputs - 1 do
    acc := Float.max !acc arrival.(outputs.(k))
  done;
  !acc

let required_times circuit delay ~tmax =
  let n = Circuit.num_gates circuit in
  let required = Array.make n infinity in
  Array.iter (fun id -> required.(id) <- Float.min required.(id) tmax) circuit.Circuit.outputs;
  (* backward sweep in reverse topological order *)
  for i = n - 1 downto 0 do
    let g = circuit.Circuit.gates.(i) in
    let r = required.(g.Circuit.id) in
    if Float.is_finite r then begin
      let avail = r -. delay.(g.Circuit.id) in
      Array.iter
        (fun f -> if avail < required.(f) then required.(f) <- avail)
        g.Circuit.fanin
    end
  done;
  (* gates feeding nothing observable get full freedom *)
  for i = 0 to n - 1 do
    if not (Float.is_finite required.(i)) then required.(i) <- tmax
  done;
  required

let analyze ?dvth ?dl ?tmax ?jobs (d : Design.t) =
  let circuit = d.Design.circuit in
  let delay = delays ?dvth ?dl d in
  let arrival = arrivals ?jobs circuit delay in
  let dmax = dmax_of_arrivals circuit arrival in
  let tmax = match tmax with Some t -> t | None -> dmax in
  let required = required_times circuit delay ~tmax in
  let slack = Array.mapi (fun i r -> r -. arrival.(i)) required in
  { delay; arrival; required; slack; dmax }

let dmax ?dvth ?dl ?jobs d =
  let delay = delays ?dvth ?dl d in
  let arrival = arrivals ?jobs d.Design.circuit delay in
  dmax_of_arrivals d.Design.circuit arrival

let critical_path circuit res =
  (* worst primary output *)
  let po =
    Array.fold_left
      (fun best id -> if res.arrival.(id) > res.arrival.(best) then id else best)
      circuit.Circuit.outputs.(0) circuit.Circuit.outputs
  in
  let rec walk acc id =
    let g = Circuit.gate circuit id in
    if Array.length g.Circuit.fanin = 0 then id :: acc
    else begin
      let pred =
        Array.fold_left
          (fun best f -> if res.arrival.(f) > res.arrival.(best) then f else best)
          g.Circuit.fanin.(0) g.Circuit.fanin
      in
      walk (id :: acc) pred
    end
  in
  Array.of_list (walk [] po)

let worst_slack res = Array.fold_left Float.min infinity res.slack

module Fast = struct
  type t = {
    circuit : Circuit.t;
    (* delay(g) = base·(1 + dl) / (vdd − vthn − dvth − k·dl)^alpha, with
       base = r0·effort·load/size precomputed. *)
    base : float array;
    vth_nom : float array;
    vdd : float;
    alpha : float;
    k_rolloff : float;
    (* one die's delays and arrivals, overwritten by every [dmax] *)
    delay : float array;
    arrival : float array;
  }

  let create (d : Design.t) =
    let tech = d.Design.lib.Sl_tech.Cell_lib.tech in
    let circuit = d.Design.circuit in
    let n = Circuit.num_gates circuit in
    let base = Array.make n 0.0 and vth_nom = Array.make n 0.0 in
    Array.iter
      (fun (g : Circuit.gate) ->
        let id = g.Circuit.id in
        if g.Circuit.kind <> Cell_kind.Pi then begin
          let d0 = Design.gate_delay d id ~dvth:0.0 ~dl:0.0 in
          let v = tech.Sl_tech.Tech.vth.(d.Design.vth_idx.(id)) in
          (* invert the nominal evaluation to recover the load-resistance
             product's prefactor *)
          base.(id) <- d0 *. ((tech.Sl_tech.Tech.vdd -. v) ** tech.Sl_tech.Tech.alpha);
          vth_nom.(id) <- v
        end)
      circuit.Circuit.gates;
    {
      circuit;
      base;
      vth_nom;
      vdd = tech.Sl_tech.Tech.vdd;
      alpha = tech.Sl_tech.Tech.alpha;
      k_rolloff = tech.Sl_tech.Tech.k_rolloff;
      delay = Array.make n 0.0;
      arrival = Array.make n 0.0;
    }

  let dmax t ~dvth ~dl =
    let delay = t.delay in
    for id = 0 to Array.length t.base - 1 do
      if t.base.(id) > 0.0 then begin
        let overdrive = t.vdd -. t.vth_nom.(id) -. dvth.(id) -. (t.k_rolloff *. dl.(id)) in
        let overdrive = Float.max 0.05 overdrive in
        delay.(id) <- t.base.(id) *. (1.0 +. dl.(id)) /. (overdrive ** t.alpha)
      end
    done;
    forward_into t.circuit delay t.arrival;
    dmax_of_arrivals t.circuit t.arrival
end
