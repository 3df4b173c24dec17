(* statleak benchmark: one workload per run.

     main.exe --workload iscas-flow|scale-30k|serve-session --seed N
              --seconds S --trace 0|1

   The seed makes the inputs (netlists, edit streams); the same seed
   gives the same inputs.  With --trace 0 the last stdout line carries
   the end-to-end metrics, with --trace 1 the per-layer metrics.  Every
   run checks its outputs and counts failed operations; a failed check
   sets "correct" to false.  See README.md. *)

open Harness

let usage () =
  prerr_endline
    "usage: main.exe --workload iscas-flow|scale-30k|serve-session --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 -> (!workload, seed, seconds, trace)
  | _ -> usage ()

(* Workload-specific extras every per-layer report carries (0 where the
   workload has no such layer work). *)
let extra_units =
  [
    ("opt.props_per_move", "ratio");
    ("mc.dies_per_s", "1/s");
    ("yield.dies_used", "count");
    ("yield.ess", "count");
    ("serve.requests", "count");
    ("serve.errors", "count");
  ]

let () =
  let workload, seed, seconds, trace = parse_args () in
  let out_dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  if trace then trace_path := Some (Filename.concat out_dir (tag ^ ".trace.json"));
  let r, headline, extra =
    match workload with
    | "iscas-flow" -> Iscas_flow.run ~seed ~seconds ~trace
    | "scale-30k" -> Scale30k.run ~seed ~seconds ~trace
    | "serve-session" ->
      let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
      Serve_session.run ~sock ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let find name = (List.find (fun m -> m.name = name) headline).value in
  let flow_s = median (List.map (fun it -> it.flow_s) (untraced r)) in
  let end_to_end =
    [
      metric "setup_s" "s" (median r.setup_s);
      metric "flow_s" "s" flow_s;
      metric "batch_optimize_s" "s" (find "batch_optimize_s");
      metric "batch_leak_reduction_pct" "%" (find "batch_leak_reduction_pct");
    ]
  in
  let per_layer =
    if not trace then []
    else
      per_layer_metrics r
        ~extra:
          (List.map
             (fun (k, u) -> metric k u (Option.value ~default:0.0 (List.assoc_opt k extra)))
             extra_units)
  in
  let iters = List.length r.iterations in
  Printf.printf "workload %s, seed %d: %d setups, %d flow iterations (%d traced)\n" workload seed
    (List.length r.setup_s) iters (List.length (traced_iters r));
  print_table "end to end" end_to_end;
  print_table "workload"
    (headline @ [ metric "peak_heap_mb" "MB" (peak_heap_mb ()) ]);
  if trace then print_table "per layer" per_layer;
  let reported = if trace then per_layer else end_to_end in
  let detail =
    Json.obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("setup_s", Json.List (List.map (fun x -> Json.Num x) r.setup_s));
        ("flow_s", Json.List (List.map (fun it -> Json.Num it.flow_s) r.iterations));
        ("traced", Json.List (List.map (fun it -> Json.Bool it.traced) r.iterations));
        ( "headline",
          Json.Obj (List.map (fun m -> (m.name, Json.Num m.value)) (headline @ end_to_end)) );
        ("per_layer", Json.Obj (List.map (fun m -> (m.name, Json.Num m.value)) per_layer));
        ("calls", calls_json ());
      ]
  in
  let oc = open_out (Filename.concat out_dir (tag ^ ".json")) in
  output_string oc (Json.to_string detail);
  close_out oc;
  print_endline (Json.to_string (result_json ~correct:(!failed = 0) reported))
