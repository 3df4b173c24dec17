module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Model = Sl_variation.Model
module Rng = Sl_util.Rng
module Stats = Sl_util.Stats
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

(* Published once per run from the coordinating domain — worker domains
   never touch the registry, so the chunk loops stay contention-free. *)
let m_chunks =
  Metrics.counter ~help:"Monte-Carlo chunks evaluated" "statleak_mc_chunks_total"

let m_dies =
  Metrics.counter ~help:"Monte-Carlo dies evaluated" "statleak_mc_dies_total"

let m_run_seconds =
  Metrics.gauge ~help:"Wall-clock seconds of the last MC sweep"
    "statleak_mc_last_run_seconds"

let m_throughput =
  Metrics.gauge ~help:"Dies per second of the last MC sweep"
    "statleak_mc_chunk_throughput_dies_per_second"

type result = { delay : float array; leak : float array }

(* Per-sample leakage without per-gate library lookups: precompute each
   gate's ln nominal; the variation enters through two constant
   sensitivities. *)
let make_leak_evaluator (d : Design.t) =
  let lib = d.Design.lib in
  let bv = Cell_lib.dln_leak_dvth lib and bl = Cell_lib.dln_leak_dl lib in
  let n = Circuit.num_gates d.Design.circuit in
  let m = Array.make n neg_infinity in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then
        m.(g.Circuit.id) <-
          Cell_lib.ln_leak_nominal lib g.Circuit.kind
            ~arity:(Array.length g.Circuit.fanin)
            ~size_idx:d.Design.size_idx.(g.Circuit.id)
            ~vth_idx:d.Design.vth_idx.(g.Circuit.id))
    d.Design.circuit.Circuit.gates;
  fun ~dvth ~dl ->
    let acc = ref 0.0 in
    for id = 0 to n - 1 do
      if m.(id) > neg_infinity then
        acc := !acc +. exp (m.(id) +. (bv *. dvth.(id)) +. (bl *. dl.(id)))
    done;
    !acc

(* Latin-hypercube PC vectors: dimension k of die i is the Gaussian
   quantile of a uniformly jittered point in stratum pi_k(i), with an
   independent permutation pi_k per dimension. *)
let lhs_z_table rng ~samples ~dims =
  let table = Array.make_matrix samples dims 0.0 in
  let perm = Array.init samples Fun.id in
  for k = 0 to dims - 1 do
    Rng.shuffle rng perm;
    for i = 0 to samples - 1 do
      let u = (float_of_int perm.(i) +. Rng.uniform rng) /. float_of_int samples in
      table.(i).(k) <- Sl_util.Special.normal_icdf u
    done
  done;
  table

(* One domain's die evaluator: the die buffers, the STA scratch and the
   compiled leakage evaluator, built once per domain and overwritten by
   every die it evaluates. *)
module Eval = struct
  type t = {
    model : Model.t;
    die : Model.Sample.t;
    cells : Model.Sample.scratch;
    fast : Sl_sta.Sta.Fast.t;
    leak_of : dvth:float array -> dl:float array -> float;
  }

  let create (d : Design.t) model =
    {
      model;
      die = Model.Sample.zero model;
      cells = Model.Sample.scratch model;
      fast = Sl_sta.Sta.Fast.create d;
      leak_of = make_leak_evaluator d;
    }

  let die t = t.die
  let draw ?row ?shift t rng = Model.Sample.fill ?row ?shift t.model t.cells rng t.die
  let delay t ~dvth = Sl_sta.Sta.Fast.dmax t.fast ~dvth ~dl:t.die.Model.Sample.dl
  let leak t ~dvth = t.leak_of ~dvth ~dl:t.die.Model.Sample.dl
end

(* The sample space is split into fixed-size chunks; chunk [c] always
   draws from [Rng.stream ~seed c] and lands in slots
   [c*chunk_size .. c*chunk_size + chunk_size - 1].  Neither depends on
   the worker count, so every die is bit-identical for every [jobs]
   (stream 0 equals the pre-parallel sequential generator, which keeps
   short naive runs byte-compatible with historical results).  Each
   domain builds its own {!Eval}; an LHS z-table is computed once up
   front and read shared. *)
let chunk_size = 256

(* Evaluate dies [first, first+count) ([first] chunk-aligned) and hand
   each to [consume i z delay leak]; [z] is the evaluating domain's
   buffer, valid only during the call.  Without [leak] no die evaluates
   its leakage (an [exp] per gate) and [consume] gets [nan]. *)
let sweep ~name ?z_of ?shift ?(leak = true) ~jobs ~seed ~first ~count (d : Design.t) model
    ~consume =
  let jobs = match jobs with Some j -> j | None -> Sl_util.Parallel.default_jobs () in
  let last = first + count - 1 in
  let c0 = first / chunk_size in
  let chunks = (last / chunk_size) - c0 + 1 in
  let work ev t =
    let c = c0 + t in
    let rng = Rng.stream ~seed c in
    let lo = c * chunk_size in
    let die = Eval.die ev in
    for i = lo to Stdlib.min last (lo + chunk_size - 1) do
      Eval.draw ?row:(Option.map (fun f -> f i) z_of) ?shift ev rng;
      let dvth = die.Model.Sample.dvth in
      consume i die.Model.Sample.z (Eval.delay ev ~dvth)
        (if leak then Eval.leak ev ~dvth else Float.nan)
    done
  in
  let t0 = Unix.gettimeofday () in
  Trace.span name
    ~attrs:
      [
        ("dies", string_of_int count);
        ("jobs", string_of_int (Sl_util.Parallel.domains ~jobs));
      ]
    (fun () ->
      Sl_util.Parallel.run ~jobs ~tasks:chunks ~init:(fun () -> Eval.create d model) work);
  let dt = Unix.gettimeofday () -. t0 in
  Metrics.add m_chunks chunks;
  Metrics.add m_dies count;
  Metrics.set m_run_seconds dt;
  if dt > 0.0 then Metrics.set m_throughput (float_of_int count /. dt)

(* Dies [0, samples); LHS rows come from stream -1. *)
let run ?(sampling = `Naive) ?jobs ~seed ~samples (d : Design.t) model =
  if samples < 1 then invalid_arg "Mc.run: samples < 1";
  let z_of =
    match sampling with
    | `Naive -> None
    | `Lhs ->
      let table = lhs_z_table (Rng.stream ~seed (-1)) ~samples ~dims:(Model.num_pcs model) in
      Some (fun i -> table.(i))
  in
  let delay = Array.make samples 0.0 and leak = Array.make samples 0.0 in
  sweep ~name:"mc.run" ?z_of ~jobs ~seed ~first:0 ~count:samples d model
    ~consume:(fun i _ dm lk ->
      delay.(i) <- dm;
      leak.(i) <- lk);
  { delay; leak }

let timing_yield r ~tmax =
  if Array.length r.delay = 0 then invalid_arg "Mc.timing_yield: empty result";
  let ok = Array.fold_left (fun acc d -> if d <= tmax then acc + 1 else acc) 0 r.delay in
  float_of_int ok /. float_of_int (Array.length r.delay)

let joint_yield r ~tmax ~lmax =
  let n = Array.length r.delay in
  if n = 0 then invalid_arg "Mc.joint_yield: empty result";
  let ok = ref 0 in
  for i = 0 to n - 1 do
    if r.delay.(i) <= tmax && r.leak.(i) <= lmax then incr ok
  done;
  float_of_int !ok /. float_of_int n

let delay_quantile r p = Stats.quantile r.delay p
let leak_quantile r p = Stats.quantile r.leak p
let leak_mean r = Stats.mean r.leak
let leak_std r = Stats.std r.leak
let delay_mean r = Stats.mean r.delay
let delay_std r = Stats.std r.delay

type die = { z : float array; delay : float; leak : float }

let run_dies ?jobs ?z_of ?shift ?leak ~seed ~first ~count (d : Design.t) model =
  if count < 1 then invalid_arg "Mc.run_dies: count < 1";
  if first < 0 || first mod chunk_size <> 0 then
    invalid_arg "Mc.run_dies: first must be a non-negative multiple of chunk_size";
  (match shift with
  | Some mu when Array.length mu <> Model.num_pcs model ->
    invalid_arg "Mc.run_dies: shift length mismatch"
  | _ -> ());
  let out = Array.make count { z = [||]; delay = 0.0; leak = 0.0 } in
  sweep ~name:"mc.run_dies" ?z_of ?shift ?leak ~jobs ~seed ~first ~count d model
    ~consume:(fun i z delay leak -> out.(i - first) <- { z = Array.copy z; delay; leak });
  out
