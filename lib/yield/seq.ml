module Mc = Sl_mc.Mc
module Ssta = Sl_ssta.Ssta
module Stats = Sl_util.Stats
module Rng = Sl_util.Rng
module Model = Sl_variation.Model

type method_ = Naive | Lhs | Is | Cv | Is_cv
type quantity = Yield | Leak_mean

let method_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "lhs" -> Some Lhs
  | "is" -> Some Is
  | "cv" -> Some Cv
  | "is+cv" | "is-cv" | "iscv" -> Some Is_cv
  | _ -> None

let method_to_string = function
  | Naive -> "naive"
  | Lhs -> "lhs"
  | Is -> "is"
  | Cv -> "cv"
  | Is_cv -> "is+cv"

(* Per-method streaming state.  All adds happen in die-index order over
   arrays that are themselves jobs-invariant, so the fold — and with it
   every reported number — is bit-identical for every worker count. *)
type state =
  | Plain of Stats.Acc.t                          (* per-die terms *)
  | Batched of Stats.Acc.t                        (* per-batch means (LHS) *)
  | Weighted of Stats.Acc.t * Stats.Wacc.t        (* IS terms + diagnostics *)
  | Controlled of Cv.Biacc.t                      (* (y, c) pairs *)
  | Weighted_controlled of Cv.Biacc.t * Stats.Wacc.t

(* LHS runs whole batches only, and its CI needs two of them *)
let min_samples ?(batch_chunks = 4) = function
  | Lhs -> 2 * batch_chunks * Mc.chunk_size
  | Naive | Is | Cv | Is_cv -> 1

let estimate ?(ci = 0.95) ?jobs ?(method_ = Is_cv) ?(quantity = Yield)
    ?(batch_chunks = 4) ?(max_samples = 1_000_000)
    ?(progress = fun ~samples:_ ~value:_ ~halfwidth:_ -> ()) ?circuit_delay
    ~target_halfwidth ~seed ~tmax (d : Sl_tech.Design.t) model =
  if target_halfwidth < 0.0 then invalid_arg "Seq.estimate: negative target_halfwidth";
  if batch_chunks < 1 then invalid_arg "Seq.estimate: batch_chunks < 1";
  let least = min_samples ~batch_chunks method_ in
  if max_samples < least then
    invalid_arg (Printf.sprintf "Seq.estimate: max_samples < %d" least);
  if not (ci > 0.0 && ci < 1.0) then invalid_arg "Seq.estimate: ci outside (0,1)";
  (match (quantity, method_) with
  | Leak_mean, (Is | Cv | Is_cv) ->
    invalid_arg "Seq.estimate: Leak_mean supports only Naive and Lhs"
  | _ -> ());
  let batch_size = batch_chunks * Mc.chunk_size in
  let num_pcs = Model.num_pcs model in
  (* the linearized circuit-delay form: shift direction for IS, surrogate
     control for CV — the caller's, or one SSTA pass, amortized over every
     die *)
  let form =
    match (method_, circuit_delay) with
    | (Is | Cv | Is_cv), Some _ -> circuit_delay
    | (Is | Cv | Is_cv), None -> Some (Ssta.analyze d model).Ssta.circuit_delay
    | (Naive | Lhs), _ -> None
  in
  let shift =
    match (method_, form) with
    | (Is | Is_cv), Some f -> Some (Is.shift f ~tmax)
    | _ -> None
  in
  let control, control_mean =
    match (method_, form) with
    | (Cv | Is_cv), Some f -> (Some (Cv.control f ~tmax), Cv.control_mean f ~tmax)
    | _ -> (None, 0.0)
  in
  let state =
    match method_ with
    | Naive -> Plain (Stats.Acc.create ())
    | Lhs -> Batched (Stats.Acc.create ())
    | Is -> Weighted (Stats.Acc.create (), Stats.Wacc.create ())
    | Cv -> Controlled (Cv.Biacc.create ())
    | Is_cv -> Weighted_controlled (Cv.Biacc.create (), Stats.Wacc.create ())
  in
  let fail (die : Mc.die) = if die.Mc.delay <= tmax then 0.0 else 1.0 in
  let term (die : Mc.die) =
    match quantity with Yield -> fail die | Leak_mean -> die.Mc.leak
  in
  (* a yield estimate reads no die's leakage *)
  let leak = quantity = Leak_mean in
  let consume_batch ~batch ~first ~count =
    let dies =
      match method_ with
      | Lhs ->
        (* one fresh LHS design per batch from its own dedicated stream;
           batches are therefore i.i.d. replicates and the chunk streams
           still drive the per-gate independent components *)
        let table =
          Mc.lhs_z_table (Rng.stream ~seed (-2 - batch)) ~samples:count ~dims:num_pcs
        in
        Mc.run_dies ?jobs ~z_of:(fun i -> table.(i - first)) ~leak ~seed ~first ~count d
          model
      | _ -> Mc.run_dies ?jobs ?shift ~leak ~seed ~first ~count d model
    in
    (match state with
    | Plain acc -> Array.iter (fun die -> Stats.Acc.add acc (term die)) dies
    | Batched acc ->
      let batch_acc = Stats.Acc.create () in
      Array.iter (fun die -> Stats.Acc.add batch_acc (term die)) dies;
      Stats.Acc.add acc (Stats.Acc.mean batch_acc)
    | Weighted (acc, wacc) ->
      let mu = Option.get shift in
      Array.iter
        (fun die ->
          let w = Is.weight ~shift:mu die.Mc.z in
          Stats.Acc.add acc (w *. fail die);
          Stats.Wacc.add wacc ~w (fail die))
        dies
    | Controlled bi ->
      let c = Option.get control in
      Array.iter (fun die -> Cv.Biacc.add bi ~y:(fail die) ~c:(c die.Mc.z)) dies
    | Weighted_controlled (bi, wacc) ->
      let mu = Option.get shift and c = Option.get control in
      Array.iter
        (fun die ->
          let w = Is.weight ~shift:mu die.Mc.z in
          Cv.Biacc.add bi ~y:(w *. fail die) ~c:(w *. c die.Mc.z);
          Stats.Wacc.add wacc ~w (fail die))
        dies)
  in
  (* raw estimand: failure probability for Yield (converted at the end),
     the mean itself for Leak_mean *)
  let raw_value () =
    match state with
    | Plain acc | Batched acc | Weighted (acc, _) -> Stats.Acc.mean acc
    | Controlled bi | Weighted_controlled (bi, _) -> Cv.Biacc.value bi ~control_mean
  in
  let raw_stderr () =
    match state with
    | Plain acc | Weighted (acc, _) | Batched acc -> Stats.Acc.stderr acc
    | Controlled bi | Weighted_controlled (bi, _) -> Cv.Biacc.stderr bi
  in
  (* a batch-means CI over B replicates has B-1 degrees of freedom; with
     fewer than four batches the spread estimate is too degenerate to
     stop on (two equal batch means would read as zero variance) *)
  let enough_batches () =
    match state with Batched acc -> Stats.Acc.count acc >= 4 | _ -> true
  in
  let z = Estimate.z_of_level ci in
  let used = ref 0 in
  let batch = ref 0 in
  let stop = ref false in
  while not !stop do
    let count =
      match method_ with
      | Lhs -> batch_size (* equal-size replicates keep batch means i.i.d. *)
      | _ -> Stdlib.min batch_size (max_samples - !used)
    in
    consume_batch ~batch:!batch ~first:!used ~count;
    used := !used + count;
    incr batch;
    let se = raw_stderr () in
    (let pv =
       match quantity with
       | Leak_mean -> raw_value ()
       | Yield -> Float.min 1.0 (Float.max 0.0 (1.0 -. raw_value ()))
     in
     progress ~samples:!used ~value:pv ~halfwidth:(z *. se));
    let converged =
      target_halfwidth > 0.0 && enough_batches () && se > 0.0
      && z *. se <= target_halfwidth
    in
    if converged || !used + (match method_ with Lhs -> batch_size | _ -> 1) > max_samples
    then stop := true
  done;
  let ess =
    match state with
    | Weighted (_, wacc) | Weighted_controlled (_, wacc) -> Stats.Wacc.ess wacc
    | _ -> float_of_int !used
  in
  let raw = raw_value () and se = raw_stderr () in
  match quantity with
  | Leak_mean -> Estimate.make ~ci ~value:raw ~stderr:se ~samples_used:!used ~ess ()
  | Yield ->
    let value = Float.min 1.0 (Float.max 0.0 (1.0 -. raw)) in
    Estimate.make ~ci ~clamp:(0.0, 1.0) ~value ~stderr:se ~samples_used:!used ~ess ()
