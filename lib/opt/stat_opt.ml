module Core = Opt_core

include Opt_core.Types

(* The share of the headroom (yield − η) a pass may spend blind between
   re-measures. *)
let yield_margin = 0.5

(* Accepted moves between exact re-measures. *)
let refresh_every = 25

(* One greedy pass: sorted candidates are accepted blind while the yield
   budget lasts; an exact re-measure every [refresh_every] accepted moves
   (or when the budget is exhausted) undoes the newest moves until the
   constraint holds again.  Returns the number of moves the pass kept. *)
let pass (st : Core.t) =
  let r = Core.rank st in
  st.trials <- st.trials + r.len;
  let accepted = ref 0 in
  let budget = ref (Core.headroom st ~margin:yield_margin) in
  let batch : Core.move list ref = ref [] in
  let settle () =
    (* only the yield is consulted here, so the backward/path repair is
       deferred to the next ranking *)
    Core.measure st;
    while Core.yield st < st.p.eta && !batch <> [] do
      match !batch with
      | [] -> ()
      | m :: rest ->
        Core.set st m.kind m.gate m.prev;
        Core.count st m.kind (-1);
        st.rollbacks <- st.rollbacks + 1;
        decr accepted;
        batch := rest;
        Core.measure st
    done;
    batch := [];
    budget := Core.headroom st ~margin:yield_margin;
    Core.report st "reduce"
  in
  for i = 0 to r.len - 1 do
    let slot = r.order.(i) in
    let gate = Core.slot_gate slot and kind = Core.slot_kind slot in
    let est_cost = r.cost.(slot) in
    if Core.still_valid st kind gate && est_cost <= !budget then begin
      batch := Core.apply st kind gate :: !batch;
      Core.count st kind 1;
      incr accepted;
      budget := !budget -. est_cost;
      if List.length !batch >= refresh_every || !budget <= 0.0 then settle ()
    end
  done;
  settle ();
  !accepted

let optimize ?progress ?engine p d model =
  Core.run ~mode:"stat" ?progress ?engine p
    ~reduce:(fun st -> Core.reduce st ~cutoff:1 pass)
    d model
