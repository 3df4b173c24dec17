module Design = Sl_tech.Design
module Model = Sl_variation.Model
module Rng = Sl_util.Rng

type config = { tmax : float; bias_min : float; bias_max : float; steps : int }

let default_config ~tmax = { tmax; bias_min = -0.075; bias_max = 0.150; steps = 24 }

type result = {
  yield_before : float;
  yield_after : float;
  leak_before : float array;
  leak_after : float array;
  bias : float array;
}

let tune ?(sampling = `Naive) ~seed ~samples cfg (d : Design.t) model =
  if samples < 1 then invalid_arg "Abb.tune: samples < 1";
  if cfg.bias_min >= cfg.bias_max then invalid_arg "Abb.tune: empty bias range";
  let rng = Rng.create seed in
  let ev = Mc.Eval.create d model in
  let table =
    match sampling with
    | `Naive -> None
    | `Lhs -> Some (Mc.lhs_z_table rng ~samples ~dims:(Model.num_pcs model))
  in
  let leak_before = Array.make samples 0.0 in
  let leak_after = Array.make samples 0.0 in
  let bias = Array.make samples 0.0 in
  let ok_before = ref 0 and ok_after = ref 0 in
  let dvth = (Mc.Eval.die ev).Model.Sample.dvth in
  let n = Array.length dvth in
  let shifted = Array.make n 0.0 in
  let shift_by b =
    for g = 0 to n - 1 do
      shifted.(g) <- dvth.(g) +. b
    done
  in
  let delay_at b =
    shift_by b;
    Mc.Eval.delay ev ~dvth:shifted
  in
  let leak_at b =
    shift_by b;
    Mc.Eval.leak ev ~dvth:shifted
  in
  for i = 0 to samples - 1 do
    Mc.Eval.draw ?row:(Option.map (fun t -> t.(i)) table) ev rng;
    leak_before.(i) <- leak_at 0.0;
    if delay_at 0.0 <= cfg.tmax then incr ok_before;
    (* delay is monotone increasing in bias: pick the largest (most
       reverse, least leaky) bias that still meets tmax; if even full
       forward bias misses, the die fails and keeps bias_min. *)
    let b =
      if delay_at cfg.bias_max <= cfg.tmax then cfg.bias_max
      else if delay_at cfg.bias_min > cfg.tmax then cfg.bias_min
      else begin
        let lo = ref cfg.bias_min and hi = ref cfg.bias_max in
        for _ = 1 to cfg.steps do
          let mid = (!lo +. !hi) /. 2.0 in
          if delay_at mid <= cfg.tmax then lo := mid else hi := mid
        done;
        !lo
      end
    in
    bias.(i) <- b;
    leak_after.(i) <- leak_at b;
    if delay_at b <= cfg.tmax then incr ok_after
  done;
  {
    yield_before = float_of_int !ok_before /. float_of_int samples;
    yield_after = float_of_int !ok_after /. float_of_int samples;
    leak_before;
    leak_after;
    bias;
  }
