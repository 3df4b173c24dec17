module Hier = Sl_ssta.Hier
module Core = Opt_core

include Opt_core.Types

type config = {
  tmax : float;
  eta : float;
  sensitivity : sensitivity;
  allow_vth : bool;
  allow_size : bool;
  refresh_every : int;
  partition : bool;
  audit : bool;
  jobs : int;
}

let default_config ~tmax ~eta =
  {
    tmax;
    eta;
    sensitivity = Stat_leak_per_yield;
    allow_vth = true;
    allow_size = true;
    refresh_every = 25;
    partition = false;
    audit = false;
    jobs = 1;
  }

(* The share of the headroom (yield − η) a pass may spend blind between
   re-measures. *)
let yield_margin = 0.5

(* One greedy pass: sorted candidates are accepted blind while the yield
   budget lasts; an exact re-measure every [refresh_every] accepted moves
   (or when the budget is exhausted) undoes the newest moves until the
   constraint holds again.  Returns the number of moves the pass kept. *)
let pass cfg settles (st : Core.t) =
  let r = Core.rank st in
  st.trials <- st.trials + r.len;
  let accepted = ref 0 in
  let budget = ref (Core.headroom st ~margin:yield_margin) in
  let batch : Core.move list ref = ref [] in
  let settle () =
    (* only the yield is consulted here, so the backward/path repair is
       deferred to the next ranking *)
    Core.measure st;
    while Core.yield st < cfg.eta && !batch <> [] do
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
    incr settles;
    Core.report st "reduce";
    if cfg.audit && !settles mod cfg.refresh_every = 0 then begin
      (* debug-build agreement check against a from-scratch analysis;
         compiled out under -noassert *)
      Core.sync st;
      assert (Hier.audit st.engine)
    end
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
      if List.length !batch >= cfg.refresh_every || !budget <= 0.0 then settle ()
    end
  done;
  settle ();
  !accepted

let optimize ?progress ?engine cfg d model =
  let settles = ref 0 in
  Core.run ~mode:"stat" ?progress ?engine
    {
      Core.tmax = cfg.tmax;
      eta = cfg.eta;
      sensitivity = cfg.sensitivity;
      allow_vth = cfg.allow_vth;
      allow_size = cfg.allow_size;
      partition = cfg.partition;
      jobs = cfg.jobs;
    }
    ~reduce:(fun st -> Core.reduce st ~cutoff:1 (pass cfg settles))
    d model

(**/**)

module Private = struct
  let violation = Core.violation
  let est_yield_cost = Core.est_yield_cost
  let compare_candidates = Core.compare_candidates
end
