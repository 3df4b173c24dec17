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
  (* event frontier: one bucket per level, level [l]'s bucket being
     [frontier.(start.(l)) .. frontier.(start.(l) + fill.(l) - 1)] and
     [start.(l + 1) - start.(l)] the level's gate count.  [queued] keeps a
     gate out of its bucket twice, so no bucket overflows.  Empty between
     updates. *)
  frontier : int array;
  start : int array;
  fill : int array;
  queued : Bytes.t;
  mutable lo : int;     (* lowest and highest non-empty level *)
  mutable hi : int;
  (* undo record of the last update: the word index overwritten (gate id
     for a delay, [n + id] for an arrival) and its old bits, oldest
     first, plus the old [dmax] *)
  mutable undo_idx : int array;
  mutable undo_old : float array;
  mutable undo_len : int;
  mutable undo_dmax : float;
}

let gate_delay t id = Design.gate_delay t.design id ~dvth:t.dvth ~dl:t.dl

let refresh t =
  let c = t.design.Design.circuit in
  Array.iter
    (fun (g : Circuit.gate) -> t.delay.(g.Circuit.id) <- gate_delay t g.Circuit.id)
    c.Circuit.gates;
  t.arrival <- Sta.arrivals c t.delay;
  t.dmax <- Sta.dmax_of_arrivals c t.arrival;
  t.undo_len <- 0;
  t.undo_dmax <- t.dmax

let create ?(dvth = 0.0) ?(dl = 0.0) design =
  let c = design.Design.circuit in
  let n = Circuit.num_gates c in
  let levels = Circuit.levels c in
  let start = Array.make (Array.length levels + 1) 0 in
  Array.iteri (fun l ids -> start.(l + 1) <- start.(l) + Array.length ids) levels;
  let t =
    {
      design;
      dvth;
      dl;
      delay = Array.make n 0.0;
      arrival = [||];
      dmax = 0.0;
      frontier = Array.make n 0;
      start;
      fill = Array.make (Array.length levels) 0;
      queued = Bytes.make n '\000';
      lo = max_int;
      hi = -1;
      undo_idx = Array.make 64 0;
      undo_old = Array.make 64 0.0;
      undo_len = 0;
      undo_dmax = 0.0;
    }
  in
  refresh t;
  t

let dmax t = t.dmax
let arrival t id = t.arrival.(id)
let delay t id = t.delay.(id)

let record t idx old =
  if t.undo_len = Array.length t.undo_idx then begin
    let cap = 2 * t.undo_len in
    let idx' = Array.make cap 0 and old' = Array.make cap 0.0 in
    Array.blit t.undo_idx 0 idx' 0 t.undo_len;
    Array.blit t.undo_old 0 old' 0 t.undo_len;
    t.undo_idx <- idx';
    t.undo_old <- old'
  end;
  t.undo_idx.(t.undo_len) <- idx;
  t.undo_old.(t.undo_len) <- old;
  t.undo_len <- t.undo_len + 1

let push t (g : Circuit.gate) =
  let id = g.Circuit.id in
  if Bytes.get t.queued id = '\000' then begin
    Bytes.set t.queued id '\001';
    let l = g.Circuit.level in
    t.frontier.(t.start.(l) + t.fill.(l)) <- id;
    t.fill.(l) <- t.fill.(l) + 1;
    if l < t.lo then t.lo <- l;
    if l > t.hi then t.hi <- l
  end

let update_gate t id =
  let c = t.design.Design.circuit in
  let n = Array.length t.delay in
  t.undo_len <- 0;
  t.undo_dmax <- t.dmax;
  (* a size change alters this gate's drive and its drivers' loads; a
     threshold change only its own delay.  Refreshing the fanin delays too
     covers both cases. *)
  let refresh_delay gid =
    let g = Circuit.gate c gid in
    if g.Circuit.kind <> Cell_kind.Pi then begin
      let nd = gate_delay t gid in
      if not (feq nd t.delay.(gid)) then begin
        record t gid t.delay.(gid);
        t.delay.(gid) <- nd;
        push t g
      end
    end
  in
  refresh_delay id;
  Array.iter refresh_delay (Circuit.gate c id).Circuit.fanin;
  (* Level-ordered frontier.  Every fanin of a gate sits at a strictly
     lower level, and a gate only ever queues its fanouts (higher levels),
     so draining the buckets lowest level first recomputes each gate after
     every fanin that could still change, and a bucket never grows while
     it drains.  A gate is recomputed iff its delay word changed or a
     fanin's arrival word changed, with Sta's own fold: the words equal a
     full sweep's. *)
  let out_dirty = ref false in
  let l = ref t.lo in
  while !l <= t.hi do
    let base = t.start.(!l) in
    for k = base to base + t.fill.(!l) - 1 do
      let gid = t.frontier.(k) in
      Bytes.set t.queued gid '\000';
      let g = Circuit.gate c gid in
      let na = Sta.gate_arrival t.arrival t.delay g in
      if not (feq na t.arrival.(gid)) then begin
        record t (n + gid) t.arrival.(gid);
        t.arrival.(gid) <- na;
        let fanout = g.Circuit.fanout in
        for j = 0 to Array.length fanout - 1 do
          push t (Circuit.gate c fanout.(j))
        done;
        if Circuit.is_po c gid then out_dirty := true
      end
    done;
    t.fill.(!l) <- 0;
    incr l
  done;
  t.lo <- max_int;
  t.hi <- -1;
  if !out_dirty then t.dmax <- Sta.dmax_of_arrivals c t.arrival

let undo t =
  let n = Array.length t.delay in
  for k = t.undo_len - 1 downto 0 do
    let i = t.undo_idx.(k) in
    if i < n then t.delay.(i) <- t.undo_old.(k) else t.arrival.(i - n) <- t.undo_old.(k)
  done;
  t.undo_len <- 0;
  t.dmax <- t.undo_dmax

let slacks t ~tmax =
  let required = Sta.required_times t.design.Design.circuit t.delay ~tmax in
  Array.mapi (fun i r -> r -. t.arrival.(i)) required
