module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib

type config = {
  tmax : float;
  corner_k : float;
  allow_vth : bool;
  allow_size : bool;
}

let default_config ~tmax =
  {
    tmax;
    corner_k = 3.0;
    allow_vth = true;
    allow_size = true;
  }

type stats = {
  feasible : bool;
  vth_moves : int;
  size_moves : int;
  trials : int;
  corner_dmax : float;
}

let cells (d : Design.t) =
  Array.to_list d.Design.circuit.Circuit.gates
  |> List.filter_map (fun (g : Circuit.gate) ->
         if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.id)
  |> Array.of_list

let nominal_leak_delta (d : Design.t) id ~vth_idx ~size_idx =
  let g = Circuit.gate d.Design.circuit id in
  let arity = Array.length g.Circuit.fanin in
  let now =
    Cell_lib.leak_current d.Design.lib g.Circuit.kind ~arity
      ~size_idx:d.Design.size_idx.(id) ~vth_idx:d.Design.vth_idx.(id) ~dvth:0.0 ~dl:0.0
  in
  let next =
    Cell_lib.leak_current d.Design.lib g.Circuit.kind ~arity ~size_idx ~vth_idx
      ~dvth:0.0 ~dl:0.0
  in
  now -. next

(* Gates on one currently-critical path (classical TILOS candidate set:
   evaluating every negative-slack gate is quadratic on large circuits and
   buys nothing — only a critical-path gate can move dmax). *)
let critical_path_gates (d : Design.t) inc =
  let c = d.Design.circuit in
  let po =
    Array.fold_left
      (fun best id ->
        if Inc_sta.arrival inc id > Inc_sta.arrival inc best then id else best)
      c.Circuit.outputs.(0) c.Circuit.outputs
  in
  let rec walk acc id =
    let g = Circuit.gate c id in
    if Array.length g.Circuit.fanin = 0 then acc
    else begin
      let pred =
        Array.fold_left
          (fun best f ->
            if Inc_sta.arrival inc f > Inc_sta.arrival inc best then f else best)
          g.Circuit.fanin.(0) g.Circuit.fanin
      in
      walk (id :: acc) pred
    end
  in
  walk [] po

(* Upsize critical gates until the corner delay meets tmax.  Candidate
   score: improvement of the *current critical path's* arrival per added
   width (TILOS sensitivity), measured exactly by trial application.
   Scoring against the path — not against global dmax — matters on
   circuits with many equal-delay parallel paths (decoders, parity trees):
   no single move improves the global max there, but repeatedly fixing the
   current worst path converges.  A move that worsens global dmax (by
   loading a critical fanin) is still rejected. *)
let fix_timing cfg (d : Design.t) inc trials size_moves =
  let num_sizes = Cell_lib.num_sizes d.Design.lib in
  let cells_total = Circuit.num_cells d.Design.circuit in
  let max_upsizes = cells_total * num_sizes in
  let continue_ = ref true in
  let upsizes = ref 0 in
  while Inc_sta.dmax inc > cfg.tmax && !continue_ && !upsizes < max_upsizes do
    let path = Array.of_list (critical_path_gates d inc) in
    let po = path.(Array.length path - 1) in
    let best = ref None in
    Array.iter
      (fun id ->
        let g = Circuit.gate d.Design.circuit id in
        let s = d.Design.size_idx.(id) in
        if g.Circuit.kind <> Cell_kind.Pi && s + 1 < num_sizes then begin
          let dmax_before = Inc_sta.dmax inc in
          let path_before = Inc_sta.arrival inc po in
          Design.set_size d id (s + 1);
          Inc_sta.update_gate inc id;
          incr trials;
          let dmax_after = Inc_sta.dmax inc in
          let path_after = Inc_sta.arrival inc po in
          let dw =
            d.Design.lib.Cell_lib.sizes.(s + 1) -. d.Design.lib.Cell_lib.sizes.(s)
          in
          let score = (path_before -. path_after) /. dw in
          (match !best with
          | Some (_, bs) when bs >= score -> ()
          | _ ->
            if path_after < path_before -. 1e-9 && dmax_after <= dmax_before +. 1e-9
            then best := Some (id, score));
          Design.set_size d id s;
          Inc_sta.undo inc
        end)
      path;
    match !best with
    | Some (id, _) ->
      Design.set_size d id (d.Design.size_idx.(id) + 1);
      Inc_sta.update_gate inc id;
      incr size_moves;
      incr upsizes
    | None -> continue_ := false
  done

(* One greedy leak-reduction pass: trial-apply candidate moves in order of
   nominal leakage saved per corner slack consumed; keep the ones that
   preserve corner timing.  Returns the number of accepted moves. *)
let reduce_pass cfg (d : Design.t) inc trials vth_moves size_moves =
  let ids = cells d in
  let num_vth = Cell_lib.num_vth d.Design.lib in
  let slack = Inc_sta.slacks inc ~tmax:cfg.tmax in
  let candidates = ref [] in
  Array.iter
    (fun id ->
      if slack.(id) > 0.0 then begin
        if cfg.allow_vth && d.Design.vth_idx.(id) + 1 < num_vth then begin
          let v = d.Design.vth_idx.(id) in
          (* threshold moves leave every capacitance unchanged: the only
             delay that moves is this gate's own *)
          let d_now = Inc_sta.delay inc id in
          Design.set_vth d id (v + 1);
          let d_next = Design.gate_delay d id ~dvth:0.0 ~dl:0.0 in
          Design.set_vth d id v;
          let dd = d_next -. d_now in
          if dd <= slack.(id) then begin
            let dleak = nominal_leak_delta d id ~vth_idx:(v + 1) ~size_idx:d.Design.size_idx.(id) in
            if dleak > 0.0 then
              candidates := (dleak /. Float.max 1e-9 dd, `Vth, id) :: !candidates
          end
        end;
        if cfg.allow_size && d.Design.size_idx.(id) > 0 then begin
          let s = d.Design.size_idx.(id) in
          let dleak = nominal_leak_delta d id ~vth_idx:d.Design.vth_idx.(id) ~size_idx:(s - 1) in
          if dleak > 0.0 then
            (* downsizing also unloads the fanins; rank by slack-scaled
               savings and let the exact trial decide feasibility *)
            candidates := (dleak /. Float.max 1e-9 slack.(id), `Size, id) :: !candidates
        end
      end)
    ids;
  (* deterministic tie-break (gate id descending, matching the historical
     stable-sort order over the reverse build order) so trajectories are
     reproducible across stdlib versions *)
  let sorted =
    List.sort
      (fun (a, _, ia) (b, _, ib) ->
        let c = Float.compare b a in
        if c <> 0 then c else Int.compare ib ia)
      !candidates
  in
  let accepted = ref 0 in
  List.iter
    (fun (_, kind, id) ->
      incr trials;
      match kind with
      | `Vth ->
        let v = d.Design.vth_idx.(id) in
        if v + 1 < num_vth then begin
          Design.set_vth d id (v + 1);
          Inc_sta.update_gate inc id;
          if Inc_sta.dmax inc > cfg.tmax then begin
            Design.set_vth d id v;
            Inc_sta.undo inc
          end
          else begin
            incr accepted;
            incr vth_moves
          end
        end
      | `Size ->
        let s = d.Design.size_idx.(id) in
        if s > 0 then begin
          Design.set_size d id (s - 1);
          Inc_sta.update_gate inc id;
          if Inc_sta.dmax inc > cfg.tmax then begin
            Design.set_size d id s;
            Inc_sta.undo inc
          end
          else begin
            incr accepted;
            incr size_moves
          end
        end)
    sorted;
  !accepted

let repair_timing d inc ~tmax ~allow_size =
  let size_moves = ref 0 in
  if allow_size then begin
    let trials = ref 0 in
    let cfg = default_config ~tmax in
    fix_timing cfg d inc trials size_moves
  end;
  !size_moves

(* Greedy reduction passes before giving up. *)
let max_passes = 25

let optimize cfg (d : Design.t) (spec : Sl_variation.Spec.t) =
  let dvth = cfg.corner_k *. spec.Sl_variation.Spec.sigma_vth in
  let dl = cfg.corner_k *. spec.Sl_variation.Spec.sigma_l in
  let inc = Inc_sta.create ~dvth ~dl d in
  let trials = ref 0 and vth_moves = ref 0 and size_moves = ref 0 in
  if cfg.allow_size then fix_timing cfg d inc trials size_moves;
  let feasible = Inc_sta.dmax inc <= cfg.tmax in
  if feasible then begin
    let pass = ref 0 in
    let go = ref true in
    while !go && !pass < max_passes do
      incr pass;
      let accepted = reduce_pass cfg d inc trials vth_moves size_moves in
      if accepted = 0 then go := false
    done
  end;
  {
    feasible = Inc_sta.dmax inc <= cfg.tmax;
    vth_moves = !vth_moves;
    size_moves = !size_moves;
    trials = !trials;
    corner_dmax = Inc_sta.dmax inc;
  }
