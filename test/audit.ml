(* Audited optimizer runs.  The run drives the engine a one-shot run
   builds ([Opt_core.build]), and at every progress point the test makes
   the engine's worst-path view current and checks it bit for bit
   against a from-scratch analysis ([Hier.audit]).  No checkpoint is
   live at a progress point, so the audit leaves every word as it was:
   the audited run must end where an unaudited run of a copy of the
   design ends. *)

module Opt_core = Sl_opt.Opt_core
module Hier = Sl_ssta.Hier
module Design = Sl_tech.Design

type optimize =
  ?progress:(Opt_core.progress -> unit) -> ?engine:Opt_core.engine -> Opt_core.params ->
  Design.t -> Sl_variation.Model.t -> Opt_core.stats

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

(* [run optimize p d model] optimizes [d] audited and returns its stats,
   after checking its assignment, move counts and final-yield bits
   against an unaudited run of a copy of [d]. *)
let run (optimize : optimize) p d model =
  let d0 = Design.copy d in
  let st0 = optimize p d0 model in
  let engine = Opt_core.build p d model in
  let points = ref 0 in
  let progress (pr : Opt_core.progress) =
    incr points;
    Hier.sync engine.timing;
    Alcotest.(check bool)
      (Printf.sprintf "engine = from-scratch at point %d (%s)" !points pr.stage)
      true (Hier.audit engine.timing)
  in
  let st = optimize ~progress ~engine p d model in
  Alcotest.(check bool) "audited at least once" true (!points > 0);
  Alcotest.(check (array int)) "vth assignment = unaudited" d0.vth_idx d.vth_idx;
  Alcotest.(check (array int)) "size assignment = unaudited" d0.size_idx d.size_idx;
  Alcotest.(check int) "vth moves = unaudited" st0.vth_moves st.vth_moves;
  Alcotest.(check int) "size moves = unaudited" st0.size_moves st.size_moves;
  Alcotest.(check string) "final yield bits = unaudited" (bits st0.final_yield)
    (bits st.final_yield);
  st
