module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Model = Sl_variation.Model
module Ssta = Sl_ssta.Ssta
module Leak_ssta = Sl_leakage.Leak_ssta
module Rng = Sl_util.Rng

type config = { tmax : float; eta : float; iterations : int; seed : int }

let default_config ~tmax ~eta = { tmax; eta; iterations = 20_000; seed = 1 }

(* The initial and final temperatures, as fractions of the initial cost,
   and λ, the yield-shortfall penalty weight. *)
let t_start = 0.05
let t_end = 0.0005
let penalty = 10.0

type stats = {
  accepted : int;
  proposed : int;
  final_cost : float;
  final_yield : float;
  feasible : bool;
}

let optimize cfg (d : Design.t) model =
  let rng = Rng.create cfg.seed in
  let leak = Leak_ssta.create d model in
  let yield_of () = Ssta.timing_yield (Ssta.analyze d model) ~tmax:cfg.tmax in
  let leak0 = Leak_ssta.mean leak in
  let cost_of y =
    Leak_ssta.mean leak +. (penalty *. leak0 *. Float.max 0.0 (cfg.eta -. y))
  in
  let cells =
    Array.to_list d.Design.circuit.Circuit.gates
    |> List.filter_map (fun (g : Circuit.gate) ->
           if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.id)
    |> Array.of_list
  in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let yield_ = ref (yield_of ()) in
  let cost = ref (cost_of !yield_) in
  let best_cost = ref !cost in
  let best_vth = Array.copy d.Design.vth_idx in
  let best_size = Array.copy d.Design.size_idx in
  let best_feasible = ref (!yield_ >= cfg.eta) in
  let accepted = ref 0 in
  (* boundary picks (e.g. upsizing a gate already at the largest drive)
     produce no proposal; counting them as proposed would understate the
     acceptance rate, so only real proposals are tallied *)
  let proposed = ref 0 in
  let cooling =
    (* geometric schedule touching t_end at the last iteration *)
    (t_end /. t_start) ** (1.0 /. float_of_int (Stdlib.max 1 cfg.iterations))
  in
  let temp = ref (t_start *. !cost) in
  for _ = 1 to cfg.iterations do
    let id = cells.(Rng.int rng (Array.length cells)) in
    let knob = if Rng.int rng 2 = 0 then `Vth else `Size in
    let proposal =
      match knob with
      | `Vth ->
        let v = d.Design.vth_idx.(id) in
        let v' = if v + 1 < num_vth && (v = 0 || Rng.int rng 2 = 0) then v + 1 else v - 1 in
        if v' < 0 || v' >= num_vth then None
        else Some (`Vth (v, v'))
      | `Size ->
        let s = d.Design.size_idx.(id) in
        let s' = if Rng.int rng 2 = 0 then s + 1 else s - 1 in
        if s' < 0 || s' >= num_sizes then None else Some (`Size (s, s'))
    in
    (match proposal with
    | None -> ()
    | Some p ->
      incr proposed;
      (match p with
      | `Vth (_, v') -> Design.set_vth d id v'
      | `Size (_, s') -> Design.set_size d id s');
      Leak_ssta.update_gate leak id;
      let y' = yield_of () in
      let c' = cost_of y' in
      let dc = c' -. !cost in
      if dc <= 0.0 || Rng.uniform rng < exp (-.dc /. Float.max 1e-12 !temp) then begin
        cost := c';
        yield_ := y';
        incr accepted;
        let feasible = y' >= cfg.eta in
        if
          (feasible && not !best_feasible)
          || (feasible = !best_feasible && c' < !best_cost)
        then begin
          best_cost := c';
          best_feasible := feasible;
          Array.blit d.Design.vth_idx 0 best_vth 0 (Array.length best_vth);
          Array.blit d.Design.size_idx 0 best_size 0 (Array.length best_size)
        end
      end
      else begin
        (match p with
        | `Vth (v, _) -> Design.set_vth d id v
        | `Size (s, _) -> Design.set_size d id s);
        Leak_ssta.update_gate leak id
      end);
    temp := !temp *. cooling
  done;
  (* restore the best solution seen *)
  Array.blit best_vth 0 d.Design.vth_idx 0 (Array.length best_vth);
  Array.blit best_size 0 d.Design.size_idx 0 (Array.length best_size);
  Leak_ssta.refresh leak;
  let y = yield_of () in
  {
    accepted = !accepted;
    proposed = !proposed;
    final_cost = cost_of y;
    final_yield = y;
    feasible = y >= cfg.eta;
  }
