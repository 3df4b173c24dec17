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

(* Linearized delay of gate [id] into slot [i] of [dst]: the nominal
   delay, the sensitivity-weighted Vth and L patterns, and the
   root-sum-square of the two independent remainders. *)
let gate_delay_into ?memo (d : Design.t) model (dst : Arena.t) i id =
  let g = Circuit.gate d.Design.circuit id in
  if g.Circuit.kind = Cell_kind.Pi then Arena.zero dst i
  else begin
    (* the memoized path returns bit-identical values (see Sl_tech.Memo) *)
    let d0 =
      match memo with
      | None -> Design.gate_delay d id ~dvth:0.0 ~dl:0.0
      | Some m -> Sl_tech.Memo.gate_delay m d id
    in
    let sv, sl = Design.delay_sens d id ~d0 in
    let cv = Model.vth_coeffs model id and cl = Model.l_coeffs model id in
    let rv = sv *. Model.vth_rnd_sigma model and rl = sl *. Model.l_rnd_sigma model in
    let data = dst.Arena.data and r = Arena.row dst i in
    data.(r) <- d0;
    for k = 0 to dst.Arena.num_pcs - 1 do
      data.(r + 2 + k) <- (sv *. cv.(k)) +. (sl *. cl.(k))
    done;
    data.(r + 1) <- sqrt ((rv *. rv) +. (rl *. rl))
  end

let gate_delay_canonical ?memo (d : Design.t) model id =
  let a = Arena.create ~n:1 ~num_pcs:(Model.num_pcs model) in
  gate_delay_into ?memo d model a 0 id;
  Arena.get a 0

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

(* ---------------- the gate kernels ----------------

   One forward and one backward gate step, shared by the from-scratch
   sweeps below and by Incremental's level batches.  Each writes one
   destination slot from slots finalized by earlier levels, through the
   calling domain's scratch. *)

type scratch = { frame : Canonical.frame; term : Arena.t }

let scratch ~num_pcs = { frame = Canonical.frame (); term = Arena.create ~n:1 ~num_pcs }

let forward_gate (c : Circuit.t) ~delay ~arr sc ~dst i gid =
  let fanin = c.Circuit.gates.(gid).Circuit.fanin in
  (* the fold runs in the scratch slot, so [dst] may be [gid]'s delay slot *)
  let acc = sc.term in
  (match Array.length fanin with
  | 0 -> Arena.zero acc 0
  | len ->
    Arena.blit arr fanin.(0) acc 0;
    for k = 1 to len - 1 do
      Arena.max2 sc.frame acc 0 arr fanin.(k) ~dst:acc 0
    done);
  Arena.add acc 0 delay gid ~dst i

let bwd_gate (c : Circuit.t) ~delay ~bwd sc ~dst i gid =
  let fanout = c.Circuit.gates.(gid).Circuit.fanout in
  let len = Array.length fanout in
  let po = Circuit.is_po c gid in
  let live = po || len > 0 in
  if live then begin
    (* fold max over the terms delay(fo) + S(fo); a PO driver's fold is
       headed by the zero term *)
    let first =
      if po then begin
        Arena.zero dst i;
        0
      end
      else begin
        Arena.add delay fanout.(0) bwd fanout.(0) ~dst i;
        1
      end
    in
    for k = first to len - 1 do
      let fo = fanout.(k) in
      Arena.add delay fo bwd fo ~dst:sc.term 0;
      Arena.max2 sc.frame dst i sc.term 0 ~dst i
    done
  end;
  live

let circuit_delay_into (c : Circuit.t) ~arr sc ~dst i =
  let outs = c.Circuit.outputs in
  if Array.length outs = 0 then Arena.zero dst i
  else begin
    Arena.blit arr outs.(0) dst i;
    for k = 1 to Array.length outs - 1 do
      Arena.max2 sc.frame dst i arr outs.(k) ~dst i
    done
  end

let path_into ~arr ~bwd id ~mu ~sigma =
  Canonical.add_moments_rows ~np:arr.Arena.num_pcs arr.Arena.data (Arena.row arr id)
    bwd.Arena.data (Arena.row bwd id) ~mu ~sigma id

(* ---------------- from-scratch sweeps ---------------- *)

(* Every gate's linearized delay into its slot.  Canonical per-gate
   delays are pure per id, so chunked domains fill disjoint slots.  An
   unfrozen memo fills its hash table lazily and is not domain-safe
   (Sl_tech.Memo), so it forces the sequential path; the values are the
   same either way. *)
let fill_delays ?memo ~jobs ~par_threshold (d : Design.t) model ~delay =
  let n = Circuit.num_gates d.Design.circuit in
  let delay_par =
    jobs > 1
    && (match memo with None -> true | Some m -> Sl_tech.Memo.frozen m)
  in
  let fill lo hi =
    for id = lo to hi - 1 do
      gate_delay_into ?memo d model delay id id
    done
  in
  if delay_par then
    Parallel.run_chunks ~jobs ~threshold:par_threshold ~n ~init:(fun () -> ())
      (fun () lo hi -> fill lo hi)
  else fill 0 n

(* Levelized forward propagation of arrivals.  Gates of one level have
   all fanins at strictly lower levels (Circuit invariant: level = 1 +
   max fanin level), so within a level every gate reads only finalized
   slots and writes only its own — the parallel schedule cannot change
   any operand, and the result is bit-identical to the sequential sweep
   for every [jobs] value.  [delay] may be [arr] itself: a gate's slot
   holds its delay until the gate's own step replaces it. *)
let arrival_sweep ~jobs ~par_threshold ?stats circuit ~delay ~arr =
  let num_pcs = arr.Arena.num_pcs in
  Array.iter
    (fun level ->
      let width = Array.length level in
      tally stats ~jobs ~threshold:par_threshold width;
      Parallel.run_chunks ~jobs ~threshold:par_threshold ~n:width
        ~init:(fun () -> scratch ~num_pcs)
        (fun sc lo hi ->
          for k = lo to hi - 1 do
            let gid = level.(k) in
            if circuit.Circuit.gates.(gid).Circuit.kind <> Cell_kind.Pi then
              forward_gate circuit ~delay ~arr sc ~dst:arr gid gid
          done))
    (Circuit.levels circuit)

(* Backward (required-time) sweep into caller-owned slots, by decreasing
   level: a gate's fanouts all sit at strictly higher levels, so within a
   level every gate reads only finalized slots.  Same bit-identity-by-
   construction argument as [arrival_sweep].  A dead gate (no fanout, not
   a PO) keeps its slot. *)
let backward_sweep ~jobs ~par_threshold ?stats circuit ~delay ~bwd =
  let num_pcs = bwd.Arena.num_pcs in
  let levels = Circuit.levels circuit in
  for li = Array.length levels - 1 downto 0 do
    let level = levels.(li) in
    let width = Array.length level in
    tally stats ~jobs ~threshold:par_threshold width;
    Parallel.run_chunks ~jobs ~threshold:par_threshold ~n:width
      ~init:(fun () -> scratch ~num_pcs)
      (fun sc lo hi ->
        for k = lo to hi - 1 do
          let gid = level.(k) in
          ignore (bwd_gate circuit ~delay ~bwd sc ~dst:bwd gid gid)
        done)
  done

(* Every full sweep is counted and traced as one analysis or one
   backward pass, whether it fills records or an engine's slots. *)
let traced name counter ~jobs n f =
  Metrics.incr counter;
  Trace.span name
    ~attrs:[ ("gates", string_of_int n); ("jobs", string_of_int (Parallel.domains ~jobs)) ]
    f

let forward_into ?memo ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats
    (d : Design.t) model ~delay ~arr =
  traced "ssta.forward" m_analyses ~jobs (Circuit.num_gates d.Design.circuit) (fun () ->
      fill_delays ?memo ~jobs ~par_threshold d model ~delay;
      arrival_sweep ~jobs ~par_threshold ?stats d.Design.circuit ~delay ~arr)

let backward_into ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats circuit
    ~delay ~bwd =
  traced "ssta.backward" m_backwards ~jobs (Circuit.num_gates circuit) (fun () ->
      backward_sweep ~jobs ~par_threshold ?stats circuit ~delay ~bwd)

(* Materialize every slot as a record, chunked across domains. *)
let to_array ~jobs ~par_threshold (a : Arena.t) =
  let out = Array.make a.Arena.n (Canonical.constant ~num_pcs:a.Arena.num_pcs 0.0) in
  Parallel.run_chunks ~jobs ~threshold:par_threshold ~n:a.Arena.n ~init:(fun () -> ())
    (fun () lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- Arena.get a i
      done);
  out

let analyze ?memo ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats
    (d : Design.t) model =
  let circuit = d.Design.circuit in
  let n = Circuit.num_gates circuit in
  traced "ssta.forward" m_analyses ~jobs n @@ fun () ->
  let num_pcs = Model.num_pcs model in
  (* one arena: each slot holds the gate's delay, materialized, until the
     sweep replaces it with the arrival *)
  let slots = Arena.create ~n ~num_pcs in
  fill_delays ?memo ~jobs ~par_threshold d model ~delay:slots;
  let gate_delay = to_array ~jobs ~par_threshold slots in
  arrival_sweep ~jobs ~par_threshold ?stats circuit ~delay:slots ~arr:slots;
  let cd = Arena.create ~n:1 ~num_pcs in
  circuit_delay_into circuit ~arr:slots (scratch ~num_pcs) ~dst:cd 0;
  { gate_delay; arrival = to_array ~jobs ~par_threshold slots; circuit_delay = Arena.get cd 0 }

let pc_sensitivity res = Array.copy res.circuit_delay.Canonical.coeffs

let timing_yield res ~tmax = Canonical.cdf res.circuit_delay tmax
let tmax_for_yield res ~p = Canonical.quantile res.circuit_delay p

let backward ?(jobs = 1) ?(par_threshold = default_par_threshold) ?stats circuit
    res =
  let n = Circuit.num_gates circuit in
  traced "ssta.backward" m_backwards ~jobs n @@ fun () ->
  let num_pcs = Canonical.num_pcs res.circuit_delay in
  let delay = Arena.create ~n ~num_pcs and bwd = Arena.create ~n ~num_pcs in
  Array.iteri (Arena.set delay) res.gate_delay;
  backward_sweep ~jobs ~par_threshold ?stats circuit ~delay ~bwd;
  to_array ~jobs ~par_threshold bwd

let path_through res ~backward id = Canonical.add res.arrival.(id) backward.(id)

let node_criticality res ~backward ~tmax id =
  1.0 -. Canonical.cdf (path_through res ~backward id) tmax

let statistical_slack res ~backward ~eta ~tmax id =
  tmax -. Canonical.quantile (path_through res ~backward id) eta
