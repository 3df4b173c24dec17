module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design

let feq (a : float) (b : float) =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type t = {
  design : Design.t;
  dvth : float;
  dl : float;
  delay : float array;
  arrival : float array;
  mutable dmax : float;
  (* cone-limited propagation state *)
  fcones : int array option array;
  arr_dirty : bool array;
  seed_flag : bool array;
  region_flag : bool array;
}

let gate_delay t id = Design.gate_delay t.design id ~dvth:t.dvth ~dl:t.dl

let recompute_dmax t =
  let c = t.design.Design.circuit in
  t.dmax <-
    Array.fold_left (fun acc id -> Float.max acc t.arrival.(id)) 0.0 c.Circuit.outputs

let sweep_arrivals t =
  let c = t.design.Design.circuit in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.Circuit.kind <> Cell_kind.Pi then begin
        let worst = ref 0.0 in
        Array.iter
          (fun f -> if t.arrival.(f) > !worst then worst := t.arrival.(f))
          g.Circuit.fanin;
        t.arrival.(g.Circuit.id) <- !worst +. t.delay.(g.Circuit.id)
      end)
    c.Circuit.gates;
  recompute_dmax t

let refresh t =
  let c = t.design.Design.circuit in
  Array.iter
    (fun (g : Circuit.gate) -> t.delay.(g.Circuit.id) <- gate_delay t g.Circuit.id)
    c.Circuit.gates;
  sweep_arrivals t

let create ?(dvth = 0.0) ?(dl = 0.0) design =
  let n = Circuit.num_gates design.Design.circuit in
  let t =
    {
      design;
      dvth;
      dl;
      delay = Array.make n 0.0;
      arrival = Array.make n 0.0;
      dmax = 0.0;
      fcones = Array.make n None;
      arr_dirty = Array.make n false;
      seed_flag = Array.make n false;
      region_flag = Array.make n false;
    }
  in
  refresh t;
  t

let dmax t = t.dmax
let arrival t id = t.arrival.(id)
let delay t id = t.delay.(id)

let fcone t id =
  match t.fcones.(id) with
  | Some c -> c
  | None ->
    let c = Circuit.fanout_cone t.design.Design.circuit id in
    t.fcones.(id) <- Some c;
    c

(* Sorted unique union of the seeds and their transitive fanout cones. *)
let merge_region t seeds =
  let acc = ref [] in
  let add gid =
    if not t.region_flag.(gid) then begin
      t.region_flag.(gid) <- true;
      acc := gid :: !acc
    end
  in
  List.iter
    (fun s ->
      add s;
      Array.iter add (fcone t s))
    seeds;
  let region = Array.of_list !acc in
  (* Int.compare, not polymorphic compare: the region is sorted on every
     update, and the polymorphic version walks the generic comparison path
     per element pair *)
  Array.sort Int.compare region;
  Array.iter (fun gid -> t.region_flag.(gid) <- false) region;
  region

let update_gate t id =
  (* a size change alters this gate's drive and its drivers' loads; a
     threshold change only its own delay.  Refreshing the fanin delays too
     covers both cases. *)
  let c = t.design.Design.circuit in
  let g = Circuit.gate c id in
  (* cone-limited: only gates whose delay word actually changed seed a
     re-propagation through their fanout cones, in topological order,
     stopping below any gate whose recomputed arrival is bit-identical.
     The recomputed values equal a full sweep's exactly (same fold). *)
  let seeds = ref [] in
  let refresh_delay gid =
    let gg = Circuit.gate c gid in
    if gg.Circuit.kind <> Cell_kind.Pi then begin
      let nd = gate_delay t gid in
      if not (feq nd t.delay.(gid)) then begin
        t.delay.(gid) <- nd;
        if not t.seed_flag.(gid) then begin
          t.seed_flag.(gid) <- true;
          seeds := gid :: !seeds
        end
      end
    end
  in
  refresh_delay id;
  Array.iter refresh_delay g.Circuit.fanin;
  match !seeds with
  | [] -> ()
  | seed_list ->
    let region = merge_region t seed_list in
    let touched = ref [] in
    let out_dirty = ref false in
    Array.iter
      (fun gid ->
        let gg = Circuit.gate c gid in
        if gg.Circuit.kind <> Cell_kind.Pi then begin
          let must =
            t.seed_flag.(gid)
            || Array.exists (fun f -> t.arr_dirty.(f)) gg.Circuit.fanin
          in
          if must then begin
            let worst = ref 0.0 in
            Array.iter
              (fun f -> if t.arrival.(f) > !worst then worst := t.arrival.(f))
              gg.Circuit.fanin;
            let na = !worst +. t.delay.(gid) in
            if not (feq na t.arrival.(gid)) then begin
              t.arrival.(gid) <- na;
              t.arr_dirty.(gid) <- true;
              touched := gid :: !touched;
              if Circuit.is_po c gid then out_dirty := true
            end
          end
        end)
      region;
    List.iter (fun gid -> t.arr_dirty.(gid) <- false) !touched;
    List.iter (fun gid -> t.seed_flag.(gid) <- false) seed_list;
    if !out_dirty then recompute_dmax t

let slacks t ~tmax =
  let c = t.design.Design.circuit in
  let n = Circuit.num_gates c in
  let required = Array.make n infinity in
  Array.iter
    (fun id -> required.(id) <- Float.min required.(id) tmax)
    c.Circuit.outputs;
  for i = n - 1 downto 0 do
    let g = c.Circuit.gates.(i) in
    let r = required.(g.Circuit.id) in
    if Float.is_finite r then begin
      let avail = r -. t.delay.(g.Circuit.id) in
      Array.iter
        (fun f -> if avail < required.(f) then required.(f) <- avail)
        g.Circuit.fanin
    end
  done;
  Array.init n (fun i ->
      let r = if Float.is_finite required.(i) then required.(i) else tmax in
      r -. t.arrival.(i))
