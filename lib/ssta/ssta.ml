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

(* A domain's work space: the scalar kernel's Clark frame and term slot,
   and the four lanes of a level batch — their Clark frame, one slot
   each (a forward fold's running max, a backward fold's next term), the
   row offsets handed to the four-lane max, and each lane's gate, the
   slot it writes and the next fanin or fanout its fold takes. *)
type scratch = {
  frame : Canonical.frame;
  term : Arena.t;
  frame4 : Canonical.frame4;
  lanes : Arena.t;
  own : int array; (* lane l's slot row in [lanes], fixed *)
  rows : int array; (* lane l's other operand row for the next step *)
  lane_gid : int array;
  lane_slot : int array;
  lane_k : int array;
}

let free = -1

let scratch ~num_pcs =
  let lanes = Arena.create ~n:4 ~num_pcs in
  {
    frame = Canonical.frame ();
    term = Arena.create ~n:1 ~num_pcs;
    frame4 = Canonical.frame4 ();
    lanes;
    own = Array.init 4 (Arena.row lanes);
    rows = Array.make 4 0;
    lane_gid = Array.make 4 free;
    lane_slot = Array.make 4 0;
    lane_k = Array.make 4 0;
  }

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

(* ---------------- level batches on four lanes ----------------

   The gates of a level batch are independent, so their folds can share
   the four-lane Clark max: each lane folds one gate, every step takes
   the next operand of all four folds at once, and a lane whose fold is
   done writes its gate's slot and takes the batch's next gate.  A gate
   that needs no Clark step is done on the spot by the scalar kernel,
   and once the batch has fewer than four folds left they finish on the
   scalar kernel too.  Every fold runs the scalar kernel's operations on
   the same operands in the same order, so each slot gets the words the
   per-gate kernel writes.  Gate [ids.(k)] writes slot [k] of [dst] when
   [staged], its own slot otherwise; only the lanes' slots are shared
   between folds, and each lane writes only its own. *)

let forward_batch (c : Circuit.t) ~delay ~arr sc ~dst ~staged (ids : int array) lo hi =
  let gates = c.Circuit.gates in
  let np = arr.Arena.num_pcs in
  let lanes = sc.lanes in
  let gid_of = sc.lane_gid and slot_of = sc.lane_slot and k_of = sc.lane_k in
  Array.fill gid_of 0 4 free;
  let next = ref lo and busy = ref 0 and go = ref true in
  while !go do
    (* every free lane takes the next gate whose fold needs a Clark step *)
    let l = ref 0 in
    while !l < 4 && !next < hi do
      if gid_of.(!l) <> free then incr l
      else begin
        let k = !next in
        incr next;
        let gid = ids.(k) in
        let g = gates.(gid) in
        if g.Circuit.kind <> Cell_kind.Pi then begin
          let slot = if staged then k else gid in
          let fanin = g.Circuit.fanin in
          if Array.length fanin < 2 then forward_gate c ~delay ~arr sc ~dst slot gid
          else begin
            Arena.blit arr fanin.(0) lanes !l;
            gid_of.(!l) <- gid;
            slot_of.(!l) <- slot;
            k_of.(!l) <- 1;
            incr busy
          end
        end
      end
    done;
    if !busy = 4 then begin
      for l = 0 to 3 do
        sc.rows.(l) <- Arena.row arr gates.(gid_of.(l)).Circuit.fanin.(k_of.(l))
      done;
      Canonical.max2_rows4 sc.frame4 ~np lanes.Arena.data sc.own arr.Arena.data sc.rows
        lanes.Arena.data sc.own;
      for l = 0 to 3 do
        let gid = gid_of.(l) in
        let k = k_of.(l) + 1 in
        if k < Array.length gates.(gid).Circuit.fanin then k_of.(l) <- k
        else begin
          Arena.add lanes l delay gid ~dst slot_of.(l);
          gid_of.(l) <- free;
          decr busy
        end
      done
    end
    else begin
      (* out of gates: the last (at most three) folds finish on the
         scalar kernel *)
      for l = 0 to 3 do
        let gid = gid_of.(l) in
        if gid <> free then begin
          let fanin = gates.(gid).Circuit.fanin in
          for k = k_of.(l) to Array.length fanin - 1 do
            Arena.max2 sc.frame lanes l arr fanin.(k) ~dst:lanes l
          done;
          Arena.add lanes l delay gid ~dst slot_of.(l);
          gid_of.(l) <- free
        end
      done;
      go := false
    end
  done

(* A backward fold runs in its gate's slot of [dst]; a lane's own slot
   holds the fold's next term.  [live.(k)] gets [bwd_gate]'s flag when
   [staged]. *)
let backward_batch (c : Circuit.t) ~delay ~bwd sc ~dst ~staged ~live (ids : int array) lo
    hi =
  let gates = c.Circuit.gates in
  let np = bwd.Arena.num_pcs in
  let lanes = sc.lanes in
  let gid_of = sc.lane_gid and slot_of = sc.lane_slot and k_of = sc.lane_k in
  Array.fill gid_of 0 4 free;
  let next = ref lo and busy = ref 0 and go = ref true in
  while !go do
    let l = ref 0 in
    while !l < 4 && !next < hi do
      if gid_of.(!l) <> free then incr l
      else begin
        let k = !next in
        incr next;
        let gid = ids.(k) in
        let slot = if staged then k else gid in
        let len = Array.length gates.(gid).Circuit.fanout in
        let po = Circuit.is_po c gid in
        if (po && len > 0) || len > 1 then begin
          (* the fold's head, then a lane takes its Clark steps *)
          let fanout = gates.(gid).Circuit.fanout in
          let first =
            if po then begin
              Arena.zero dst slot;
              0
            end
            else begin
              Arena.add delay fanout.(0) bwd fanout.(0) ~dst slot;
              1
            end
          in
          if staged then live.(k) <- true;
          gid_of.(!l) <- gid;
          slot_of.(!l) <- slot;
          k_of.(!l) <- first;
          incr busy
        end
        else begin
          let lv = bwd_gate c ~delay ~bwd sc ~dst slot gid in
          if staged then live.(k) <- lv
        end
      end
    done;
    if !busy = 4 then begin
      for l = 0 to 3 do
        let fo = gates.(gid_of.(l)).Circuit.fanout.(k_of.(l)) in
        Arena.add delay fo bwd fo ~dst:lanes l;
        sc.rows.(l) <- Arena.row dst slot_of.(l)
      done;
      Canonical.max2_rows4 sc.frame4 ~np dst.Arena.data sc.rows lanes.Arena.data sc.own
        dst.Arena.data sc.rows;
      for l = 0 to 3 do
        let k = k_of.(l) + 1 in
        if k < Array.length gates.(gid_of.(l)).Circuit.fanout then k_of.(l) <- k
        else begin
          gid_of.(l) <- free;
          decr busy
        end
      done
    end
    else begin
      (* out of gates: the last (at most three) folds finish on the
         scalar kernel *)
      for l = 0 to 3 do
        let gid = gid_of.(l) in
        if gid <> free then begin
          let fanout = gates.(gid).Circuit.fanout and i = slot_of.(l) in
          for k = k_of.(l) to Array.length fanout - 1 do
            let fo = fanout.(k) in
            Arena.add delay fo bwd fo ~dst:sc.term 0;
            Arena.max2 sc.frame dst i sc.term 0 ~dst i
          done;
          gid_of.(l) <- free
        end
      done;
      go := false
    end
  done

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

let path_into4 ~arr ~bwd i0 i1 i2 i3 ~mu ~sigma =
  Canonical.add_moments_rows4 ~np:arr.Arena.num_pcs arr.Arena.data bwd.Arena.data ~mu
    ~sigma i0 i1 i2 i3

let paths_into ~arr ~bwd lo hi ~mu ~sigma =
  let id = ref lo in
  while !id + 4 <= hi do
    let i = !id in
    path_into4 ~arr ~bwd i (i + 1) (i + 2) (i + 3) ~mu ~sigma;
    id := i + 4
  done;
  for i = !id to hi - 1 do
    path_into ~arr ~bwd i ~mu ~sigma
  done

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
          forward_batch circuit ~delay ~arr sc ~dst:arr ~staged:false level lo hi))
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
        backward_batch circuit ~delay ~bwd sc ~dst:bwd ~staged:false ~live:[||] level lo
          hi)
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
