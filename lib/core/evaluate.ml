module Design = Sl_tech.Design
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Leak_ssta = Sl_leakage.Leak_ssta
module Mc = Sl_mc.Mc
module Circuit = Sl_netlist.Circuit
module Metrics = Sl_obs.Metrics

type metrics = {
  nominal_delay : float;
  delay_mean : float;
  delay_std : float;
  yield_ssta : float;
  yield_mc : float option;
  leak_nominal : float;
  leak_mean : float;
  leak_std : float;
  leak_p95 : float;
  leak_p99 : float;
  leak_mc_mean : float option;
  leak_mc_p99 : float option;
  high_vth_frac : float;
  total_width : float;
}

(* How far the analytical models sit from the MC golden reference on the
   last MC-verified design of each circuit. *)
let publish_fidelity (s : Setup.t) m =
  match (m.yield_mc, m.leak_mc_mean, m.leak_mc_p99) with
  | Some y, Some mean, Some p99 ->
    let g name help v =
      Metrics.set (Metrics.gauge ~help ~labels:[ ("circuit", s.Setup.name) ] name) v
    in
    g "statleak_fidelity_yield_gap" "|SSTA yield - MC yield|"
      (Float.abs (m.yield_ssta -. y));
    g "statleak_fidelity_leak_mean_rel_error"
      "|Wilkinson leakage mean - MC mean| / MC mean"
      (Float.abs (m.leak_mean -. mean) /. mean);
    g "statleak_fidelity_leak_p99_rel_error"
      "|Wilkinson leakage p99 - MC p99| / MC p99"
      (Float.abs (m.leak_p99 -. p99) /. p99)
  | _ -> ()

let design ?(mc_samples = 0) ?(seed = 1) ?jobs (s : Setup.t) ~tmax d =
  let res = Ssta.analyze d s.Setup.model in
  let leak = Leak_ssta.create d s.Setup.model in
  let mc =
    if mc_samples > 0 then Some (Mc.run ?jobs ~seed ~samples:mc_samples d s.Setup.model)
    else None
  in
  let cells = float_of_int (Circuit.num_cells s.Setup.circuit) in
  let m =
    {
      nominal_delay = Sl_sta.Sta.dmax d;
      delay_mean = res.Ssta.circuit_delay.Canonical.mean;
      delay_std = Canonical.sigma res.Ssta.circuit_delay;
      yield_ssta = Ssta.timing_yield res ~tmax;
      yield_mc = Option.map (fun r -> Mc.timing_yield r ~tmax) mc;
      leak_nominal = Leak_ssta.nominal leak;
      leak_mean = Leak_ssta.mean leak;
      leak_std = Leak_ssta.std leak;
      leak_p95 = Leak_ssta.quantile leak 0.95;
      leak_p99 = Leak_ssta.quantile leak 0.99;
      leak_mc_mean = Option.map Mc.leak_mean mc;
      leak_mc_p99 = Option.map (fun r -> Mc.leak_quantile r 0.99) mc;
      high_vth_frac = float_of_int (Design.count_high_vth d) /. Float.max 1.0 cells;
      total_width = Design.total_width d;
    }
  in
  publish_fidelity s m;
  m

let improvement base opt = 100.0 *. (base -. opt) /. base
