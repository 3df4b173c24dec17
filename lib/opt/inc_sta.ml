module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Sta = Sl_sta.Sta

let feq (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type t = {
  design : Design.t;
  dvth : float;
  dl : float;
  delay : float array;
  mutable arrival : float array;
  mutable dmax : float;
  (* event frontier: binary min-heap of gate ids awaiting a recompute,
     duplicates allowed; empty between updates.  Its own int heap:
     with Sl_util.Heap (float keys, an option per pop) `statleak
     optimize mult16 --mode det` took twice as long. *)
  mutable heap : int array;
  mutable size : int;
}

let gate_delay t id = Design.gate_delay t.design id ~dvth:t.dvth ~dl:t.dl

let refresh t =
  let c = t.design.Design.circuit in
  Array.iter
    (fun (g : Circuit.gate) -> t.delay.(g.Circuit.id) <- gate_delay t g.Circuit.id)
    c.Circuit.gates;
  t.arrival <- Sta.arrivals c t.delay;
  t.dmax <- Sta.dmax_of_arrivals c t.arrival

let create ?(dvth = 0.0) ?(dl = 0.0) design =
  let n = Circuit.num_gates design.Design.circuit in
  let t =
    {
      design;
      dvth;
      dl;
      delay = Array.make n 0.0;
      arrival = [||];
      dmax = 0.0;
      heap = Array.make 64 0;
      size = 0;
    }
  in
  refresh t;
  t

let dmax t = t.dmax
let arrival t id = t.arrival.(id)
let delay t id = t.delay.(id)

let push t id =
  if t.size = Array.length t.heap then begin
    let h = Array.make (2 * t.size) 0 in
    Array.blit t.heap 0 h 0 t.size;
    t.heap <- h
  end;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && t.heap.((!i - 1) / 2) > id do
    t.heap.(!i) <- t.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  t.heap.(!i) <- id

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < t.size && t.heap.(l + 1) < t.heap.(l) then l + 1 else l in
    if c < t.size && t.heap.(c) < last then begin
      t.heap.(!i) <- t.heap.(c);
      i := c
    end
    else sifting := false
  done;
  t.heap.(!i) <- last;
  top

let update_gate t id =
  (* a size change alters this gate's drive and its drivers' loads; a
     threshold change only its own delay.  Refreshing the fanin delays too
     covers both cases. *)
  let c = t.design.Design.circuit in
  let refresh_delay gid =
    if (Circuit.gate c gid).Circuit.kind <> Cell_kind.Pi then begin
      let nd = gate_delay t gid in
      if not (feq nd t.delay.(gid)) then begin
        t.delay.(gid) <- nd;
        push t gid
      end
    end
  in
  refresh_delay id;
  Array.iter refresh_delay (Circuit.gate c id).Circuit.fanin;
  (* Event-driven frontier.  Ids are a topological order and a gate only
     ever pushes its fanouts (larger ids), so popping in increasing id
     recomputes each gate after every fanin that could still change.  A
     gate is recomputed iff its delay word changed or a fanin's arrival
     word changed, with Sta's own fold: the words equal a full sweep's. *)
  let out_dirty = ref false in
  while t.size > 0 do
    let gid = pop t in
    while t.size > 0 && t.heap.(0) = gid do
      ignore (pop t)
    done;
    let g = Circuit.gate c gid in
    let na = Sta.gate_arrival t.arrival t.delay g in
    if not (feq na t.arrival.(gid)) then begin
      t.arrival.(gid) <- na;
      Array.iter (push t) g.Circuit.fanout;
      if Circuit.is_po c gid then out_dirty := true
    end
  done;
  if !out_dirty then t.dmax <- Sta.dmax_of_arrivals c t.arrival

let slacks t ~tmax =
  let required = Sta.required_times t.design.Design.circuit t.delay ~tmax in
  Array.mapi (fun i r -> r -. t.arrival.(i)) required
