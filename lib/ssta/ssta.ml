module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Model = Sl_variation.Model
module Parallel = Sl_util.Parallel
module Trace = Sl_obs.Trace
module Metrics = Sl_obs.Metrics

(* Registered once at library load; serve sessions running on pool
   domains all feed the same process-global families. *)
let m_analyses =
  Metrics.counter ~help:"Forward SSTA analyses" "statleak_ssta_analyses_total"

let m_backwards =
  Metrics.counter ~help:"Backward (required-time) SSTA sweeps"
    "statleak_ssta_backwards_total"

let m_par_levels =
  Metrics.counter ~help:"Level batches run across worker domains"
    "statleak_ssta_par_levels_total"

let m_seq_levels =
  Metrics.counter ~help:"Level batches run inline (below par threshold)"
    "statleak_ssta_seq_levels_total"

type result = {
  gate_delay : Canonical.t array;
  arrival : Canonical.t array;
  circuit_delay : Canonical.t;
}

type par_stats = {
  mutable par_levels : int;
  mutable seq_levels : int;
  mutable max_level_width : int;
}

let par_stats () = { par_levels = 0; seq_levels = 0; max_level_width = 0 }

let default_par_threshold = 192

let gate_delay_canonical ?memo (d : Design.t) model id =
  let g = Circuit.gate d.Design.circuit id in
  let num_pcs = Model.num_pcs model in
  if g.Circuit.kind = Cell_kind.Pi then Canonical.constant ~num_pcs 0.0
  else begin
    (* the memoized path returns bit-identical values (see Sl_tech.Memo) *)
    let d0, (sv, sl) =
      match memo with
      | None ->
        (Design.gate_delay d id ~dvth:0.0 ~dl:0.0, Design.gate_delay_sens d id)
      | Some m -> (Sl_tech.Memo.gate_delay m d id, Sl_tech.Memo.gate_delay_sens m d id)
    in
    let cv = Model.vth_coeffs model id and cl = Model.l_coeffs model id in
    let coeffs = Array.init num_pcs (fun k -> (sv *. cv.(k)) +. (sl *. cl.(k))) in
    let rv = sv *. Model.vth_rnd_sigma model and rl = sl *. Model.l_rnd_sigma model in
    Canonical.make ~mean:d0 ~coeffs ~rnd:(sqrt ((rv *. rv) +. (rl *. rl)))
  end

(* Count whether a level batch of [width] gates will run on domains or
   inline, mirroring the Parallel.run_chunks decision. *)
let tally stats ~jobs ~threshold width =
  let par = jobs > 1 && width >= threshold in
  if par then Metrics.incr m_par_levels else Metrics.incr m_seq_levels;
  match stats with
  | None -> ()
  | Some st ->
    if width > st.max_level_width then st.max_level_width <- width;
    if par then st.par_levels <- st.par_levels + 1
    else st.seq_levels <- st.seq_levels + 1

(* Levelized forward propagation through a flat arena.  Gates of one
   level have all fanins at strictly lower levels (Circuit invariant:
   level = 1 + max fanin level), so within a level every gate reads only
   finalized slots and writes only its own — the parallel schedule cannot
   change any operand, and the result is bit-identical to the sequential
   sweep for every [jobs] value. *)
let analyze ?memo ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats
    (d : Design.t) model =
  let circuit = d.Design.circuit in
  let n = Circuit.num_gates circuit in
  Metrics.incr m_analyses;
  Trace.span "ssta.forward"
    ~attrs:[ ("gates", string_of_int n); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let num_pcs = Model.num_pcs model in
  let zero = Canonical.constant ~num_pcs 0.0 in
  (* Canonical per-gate delays are pure per id, so chunked domains fill
     disjoint slots.  An unfrozen memo fills its hash table lazily and is
     not domain-safe (Sl_tech.Memo), so it forces the sequential path;
     the values are the same either way. *)
  let gate_delay = Array.make n zero in
  let delay_par =
    jobs > 1
    && (match memo with None -> true | Some m -> Sl_tech.Memo.frozen m)
  in
  let fill_delays lo hi =
    for id = lo to hi - 1 do
      gate_delay.(id) <- gate_delay_canonical ?memo d model id
    done
  in
  if delay_par then
    Parallel.run_chunks ~jobs ~threshold:par_threshold ~n ~init:(fun () -> ())
      (fun () lo hi -> fill_delays lo hi)
  else fill_delays 0 n;
  let arr = Arena.create ~n ~num_pcs in
  let forward_gate sc gid =
    let g = circuit.Circuit.gates.(gid) in
    if g.Circuit.kind <> Cell_kind.Pi then begin
      let fanin = g.Circuit.fanin in
      (match Array.length fanin with
      | 0 -> Arena.load_zero sc
      | len ->
        Arena.load sc arr fanin.(0);
        for k = 1 to len - 1 do
          Arena.max2_slot sc arr fanin.(k)
        done);
      Arena.add_canonical sc gate_delay.(gid);
      Arena.store arr gid sc
    end
  in
  Array.iter
    (fun level ->
      let width = Array.length level in
      tally stats ~jobs ~threshold:par_threshold width;
      Parallel.run_chunks ~jobs ~threshold:par_threshold ~n:width
        ~init:(fun () -> Arena.scratch ~num_pcs)
        (fun sc lo hi ->
          for k = lo to hi - 1 do
            forward_gate sc level.(k)
          done))
    (Circuit.levels circuit);
  let circuit_delay =
    let outs = circuit.Circuit.outputs in
    if Array.length outs = 0 then zero
    else begin
      let sc = Arena.scratch ~num_pcs in
      Arena.load sc arr outs.(0);
      for k = 1 to Array.length outs - 1 do
        Arena.max2_slot sc arr outs.(k)
      done;
      Arena.to_canonical sc
    end
  in
  let arrival = Array.make n zero in
  Parallel.run_chunks ~jobs ~threshold:par_threshold ~n ~init:(fun () -> ())
    (fun () lo hi ->
      for i = lo to hi - 1 do
        arrival.(i) <- Arena.get arr i
      done);
  { gate_delay; arrival; circuit_delay }

let pc_sensitivity res = Array.copy res.circuit_delay.Canonical.coeffs

let timing_yield res ~tmax = Canonical.cdf res.circuit_delay tmax
let tmax_for_yield res ~p = Canonical.quantile res.circuit_delay p

(* Backward (required-time) sweep through the same arena, by decreasing
   level: a gate's fanouts all sit at strictly higher levels, so within a
   level every gate reads only finalized slots.  Same bit-identity-by-
   construction argument as [analyze]. *)
let backward ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats circuit
    res =
  let n = Circuit.num_gates circuit in
  Metrics.incr m_backwards;
  Trace.span "ssta.backward"
    ~attrs:[ ("gates", string_of_int n); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let num_pcs = Canonical.num_pcs res.circuit_delay in
  let zero = Canonical.constant ~num_pcs 0.0 in
  let sa = Arena.create ~n ~num_pcs in
  let bwd_gate sc tm gid =
    let g = circuit.Circuit.gates.(gid) in
    let fanout = g.Circuit.fanout in
    let len = Array.length fanout in
    if Circuit.is_po circuit gid then begin
      (* PO driver: the zero term heads the fold *)
      Arena.load_zero sc;
      for k = 0 to len - 1 do
        let fo = fanout.(k) in
        Arena.load_add_canonical_slot tm res.gate_delay.(fo) sa fo;
        Arena.max2_scratch sc tm
      done;
      Arena.store sa gid sc
    end
    else if len > 0 then begin
      let fo0 = fanout.(0) in
      Arena.load_add_canonical_slot sc res.gate_delay.(fo0) sa fo0;
      for k = 1 to len - 1 do
        let fo = fanout.(k) in
        Arena.load_add_canonical_slot tm res.gate_delay.(fo) sa fo;
        Arena.max2_scratch sc tm
      done;
      Arena.store sa gid sc
    end
    (* dead gate (no fanout, not a PO): slot keeps zero *)
  in
  let levels = Circuit.levels circuit in
  for li = Array.length levels - 1 downto 0 do
    let level = levels.(li) in
    let width = Array.length level in
    tally stats ~jobs ~threshold:par_threshold width;
    Parallel.run_chunks ~jobs ~threshold:par_threshold ~n:width
      ~init:(fun () -> (Arena.scratch ~num_pcs, Arena.scratch ~num_pcs))
      (fun (sc, tm) lo hi ->
        for k = lo to hi - 1 do
          bwd_gate sc tm level.(k)
        done)
  done;
  let s = Array.make n zero in
  Parallel.run_chunks ~jobs ~threshold:par_threshold ~n ~init:(fun () -> ())
    (fun () lo hi ->
      for i = lo to hi - 1 do
        s.(i) <- Arena.get sa i
      done);
  s

let path_through res ~backward id = Canonical.add res.arrival.(id) backward.(id)

let node_criticality res ~backward ~tmax id =
  1.0 -. Canonical.cdf (path_through res ~backward id) tmax

let statistical_slack res ~backward ~eta ~tmax id =
  tmax -. Canonical.quantile (path_through res ~backward id) eta
