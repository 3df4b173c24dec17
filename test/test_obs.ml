(* The observability layer: metrics registry semantics and Prometheus
   exposition, span recording with Chrome trace export (including the
   cross-domain merge used under Sl_util.Parallel workers), and the
   leveled logger. *)

module Metrics = Sl_obs.Metrics
module Trace = Sl_obs.Trace
module Log = Sl_obs.Log
module Json = Sl_util.Json
module Parallel = Sl_util.Parallel
module Histogram = Sl_util.Histogram

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

(* ---------- metrics: registration and mutation ---------- *)

let test_metrics_counter_basic () =
  let c = Metrics.counter "test_obs_basic_total" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "incr + add" (before + 6) (Metrics.counter_value c);
  (* re-registration returns the same handle, so totals keep accumulating *)
  let c' = Metrics.counter "test_obs_basic_total" in
  Metrics.incr c';
  Alcotest.(check int) "same handle" (before + 7) (Metrics.counter_value c);
  Metrics.set_counter c 42;
  Alcotest.(check int) "set_counter" 42 (Metrics.counter_value c)

let test_metrics_kind_mismatch () =
  ignore (Metrics.counter "test_obs_kind_clash");
  match Metrics.gauge "test_obs_kind_clash" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"
  | exception Invalid_argument _ -> ()

let test_metrics_bad_name () =
  List.iter
    (fun name ->
      match Metrics.counter name with
      | _ -> Alcotest.failf "accepted malformed name %S" name
      | exception Invalid_argument _ -> ())
    [ ""; "9starts_with_digit"; "has space"; "has-dash"; "quo\"te" ]

let test_metrics_labels_distinguish () =
  let a = Metrics.counter ~labels:[ ("mode", "a") ] "test_obs_labeled_total" in
  let b = Metrics.counter ~labels:[ ("mode", "b") ] "test_obs_labeled_total" in
  Metrics.incr a;
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "label a" 2 (Metrics.counter_value a);
  Alcotest.(check int) "label b" 1 (Metrics.counter_value b);
  Alcotest.(check (option (float 0.0))) "value_of a" (Some 2.0)
    (Metrics.value_of ~labels:[ ("mode", "a") ] "test_obs_labeled_total");
  Alcotest.(check (option (float 0.0))) "value_of absent" None
    (Metrics.value_of "test_obs_never_registered")

let test_metrics_gauge () =
  let g = Metrics.gauge "test_obs_gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Metrics.gauge_value g);
  Metrics.set g (-1.0);
  Alcotest.(check (float 0.0)) "overwrite" (-1.0) (Metrics.gauge_value g)

let test_metrics_histogram () =
  let h =
    Metrics.histogram ~bins:4 ~lo:0.0 ~hi:4.0 "test_obs_hist"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.5; 3.5; 100.0 (* clamps *) ];
  let hist, sum = Metrics.histogram_snapshot h in
  Alcotest.(check int) "total" 5 hist.Histogram.total;
  Alcotest.(check (array int)) "buckets" [| 1; 2; 0; 2 |] hist.Histogram.counts;
  Alcotest.(check (float 1e-9)) "running sum" 107.0 sum;
  (* value_of on a histogram identity reads the observation count *)
  Alcotest.(check (option (float 0.0))) "value_of = count" (Some 5.0)
    (Metrics.value_of "test_obs_hist")

let test_metrics_disabled_noop () =
  let c = Metrics.counter "test_obs_disabled_total" in
  let v = Metrics.counter_value c in
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.incr c;
      Metrics.add c 10;
      Alcotest.(check int) "frozen while disabled" v (Metrics.counter_value c));
  Metrics.incr c;
  Alcotest.(check int) "live again" (v + 1) (Metrics.counter_value c)

let test_metrics_reset_keeps_handles () =
  let c = Metrics.counter "test_obs_reset_total" in
  let g = Metrics.gauge "test_obs_reset_gauge" in
  Metrics.incr c;
  Metrics.set g 9.0;
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (Metrics.gauge_value g);
  Metrics.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Metrics.counter_value c)

(* ---------- metrics: exposition ---------- *)

let test_metrics_render_format () =
  let c =
    Metrics.counter ~help:"a test counter"
      ~labels:[ ("kind", "x") ]
      "test_obs_render_total"
  in
  Metrics.add c 3;
  let h =
    Metrics.histogram ~bins:2 ~lo:0.0 ~hi:2.0 "test_obs_render_hist"
  in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  let text = Metrics.render () in
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "exposition missing %S\n%s" needle text)
    [
      "# HELP test_obs_render_total a test counter";
      "# TYPE test_obs_render_total counter";
      "test_obs_render_total{kind=\"x\"} 3";
      "# TYPE test_obs_render_hist histogram";
      "test_obs_render_hist_bucket{le=\"1\"} 1";
      (* cumulative: the +Inf bucket equals the count *)
      "test_obs_render_hist_bucket{le=\"+Inf\"} 2";
      "test_obs_render_hist_sum 2";
      "test_obs_render_hist_count 2";
    ]

let test_metrics_snapshot_sorted () =
  ignore (Metrics.counter "test_obs_zz_total");
  ignore (Metrics.counter "test_obs_aa_total");
  let names =
    List.map (fun s -> s.Metrics.name) (Metrics.snapshot ())
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "snapshot sorted by name" true (sorted names);
  Alcotest.(check bool) "includes registered families" true
    (List.exists (String.equal "test_obs_aa_total") names)

(* ---------- trace ---------- *)

(* Every trace test owns the global sink for its duration and puts the
   default back, so suite order never matters. *)
let with_sink sink f =
  let saved = Trace.sink () in
  Trace.set_sink sink;
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Trace.clear ();
      Trace.set_sink saved)
    f

let events () =
  match Trace.export () with
  | Json.Obj _ as o -> Option.get (Json.list "traceEvents" o)
  | _ -> Alcotest.fail "export is not an object"

let test_trace_disabled_records_nothing () =
  with_sink Trace.Disabled (fun () ->
      let r = Trace.span "t.noop" (fun () -> 41 + 1) in
      Trace.instant "t.instant";
      Alcotest.(check int) "thunk still runs" 42 r;
      Alcotest.(check int) "no events" 0 (Trace.event_count ()))

let test_trace_discard_records_nothing () =
  with_sink Trace.Discard (fun () ->
      ignore (Trace.span "t.discard" (fun () -> ()));
      Alcotest.(check bool) "enabled" true (Trace.enabled ());
      Alcotest.(check int) "events dropped" 0 (Trace.event_count ()))

let test_trace_memory_nesting () =
  with_sink Trace.Memory (fun () ->
      let r =
        Trace.span ~attrs:[ ("circuit", "c17") ] "t.outer" (fun () ->
            Trace.span "t.inner" (fun () -> 7))
      in
      Alcotest.(check int) "result" 7 r;
      Alcotest.(check int) "two events" 2 (Trace.event_count ());
      match events () with
      | [ outer; inner ] ->
        Alcotest.(check (option string)) "outer first (sorted by ts)"
          (Some "t.outer") (Json.str "name" outer);
        Alcotest.(check (option string)) "inner name" (Some "t.inner")
          (Json.str "name" inner);
        Alcotest.(check (option string)) "complete events" (Some "X")
          (Json.str "ph" outer);
        let ts e = Option.get (Json.num "ts" e) in
        let dur e = Option.get (Json.num "dur" e) in
        Alcotest.(check bool) "inner starts inside outer" true
          (ts inner >= ts outer
          && ts inner +. dur inner <= ts outer +. dur outer +. 1.0);
        let args = Option.get (Json.mem "args" outer) in
        Alcotest.(check (option string)) "attrs become args" (Some "c17")
          (Json.str "circuit" args)
      | l -> Alcotest.failf "expected 2 events, got %d" (List.length l))

exception Obs_boom

let test_trace_exception_path () =
  with_sink Trace.Memory (fun () ->
      (match Trace.span "t.raises" (fun () -> raise Obs_boom) with
      | () -> Alcotest.fail "expected Obs_boom"
      | exception Obs_boom -> ());
      Alcotest.(check int) "span recorded despite raise" 1
        (Trace.event_count ()))

let test_trace_instant () =
  with_sink Trace.Memory (fun () ->
      Trace.instant ~attrs:[ ("n", "3") ] "t.mark";
      match events () with
      | [ e ] ->
        Alcotest.(check (option string)) "instant phase" (Some "i")
          (Json.str "ph" e);
        Alcotest.(check (option string)) "name" (Some "t.mark")
          (Json.str "name" e)
      | l -> Alcotest.failf "expected 1 event, got %d" (List.length l))

let test_trace_cross_domain_merge () =
  with_sink Trace.Memory (fun () ->
      let tasks = 24 in
      Parallel.run ~jobs:4 ~tasks
        ~init:(fun () -> ())
        (fun () i ->
          Trace.span
            ~attrs:[ ("i", string_of_int i) ]
            "t.worker"
            (fun () -> ignore (Stdlib.sin (float_of_int i))));
      (* every worker-domain buffer must merge into one stream *)
      let evs = events () in
      let workers =
        List.filter
          (fun e -> Json.str "name" e = Some "t.worker")
          evs
      in
      Alcotest.(check int) "all spans merged" tasks (List.length workers);
      let ts = List.map (fun e -> Option.get (Json.num "ts" e)) evs in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "chronological" true (sorted ts);
      Alcotest.(check bool) "timestamps monotonized" true
        (List.for_all (fun t -> t >= 0.0) ts))

(* successive parallel runs reuse the resident workers: K runs whose
   tasks outlast a worker's wake-up trace on the caller plus at most
   [max 1 (cores - 1)] workers (2 thread ids on a 2-core host), where a
   domain spawned per run would add one thread id per run *)
let test_trace_resident_tids () =
  with_sink Trace.Memory (fun () ->
      let most = 1 + Stdlib.max 1 (Parallel.default_jobs () - 1) in
      let runs = most + 8 in
      for _ = 1 to runs do
        Parallel.run ~jobs:2 ~tasks:2 ~init:ignore (fun () _ ->
            Trace.span "t.sleep" (fun () -> Unix.sleepf 0.001))
      done;
      let sleeps =
        List.filter (fun e -> Json.str "name" e = Some "t.sleep") (events ())
      in
      Alcotest.(check int) "every task traced" (2 * runs) (List.length sleeps);
      let tids =
        List.sort_uniq Float.compare
          (List.map (fun e -> Option.get (Json.num "tid" e)) sleeps)
      in
      if List.length tids > most then
        Alcotest.failf "%d runs traced on %d thread ids, expected at most %d"
          runs (List.length tids) most)

let test_trace_write_roundtrip () =
  with_sink Trace.Memory (fun () ->
      Trace.span "t.saved" (fun () -> ());
      let path = Filename.temp_file "obs_trace" ".json" in
      let n = Trace.write path in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Sys.remove path;
      Alcotest.(check int) "event count returned" 1 n;
      match Json.of_string text with
      | o ->
        Alcotest.(check int) "file parses with traceEvents" 1
          (List.length (Option.get (Json.list "traceEvents" o)))
      | exception Json.Parse_error m -> Alcotest.failf "bad JSON: %s" m)

(* ---------- log ---------- *)

let with_captured_log level f =
  let lines = ref [] in
  let saved_level = Log.level () in
  Log.set_sink (Some (fun l -> lines := l :: !lines));
  Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level saved_level)
    (fun () ->
      f ();
      List.rev !lines)

let test_log_level_filtering () =
  let lines =
    with_captured_log Log.Warn (fun () ->
        Log.debugf "dropped %d" 1;
        Log.infof "dropped %d" 2;
        Log.warnf "kept %d" 3;
        Log.errorf "kept %d" 4)
  in
  Alcotest.(check int) "only warn+ pass" 2 (List.length lines);
  Alcotest.(check bool) "warn tagged" true
    (contains (List.nth lines 0) "[warn] kept 3");
  Alcotest.(check bool) "error tagged" true
    (contains (List.nth lines 1) "[error] kept 4")

let test_log_ctx_and_timestamp () =
  let lines =
    with_captured_log Log.Info (fun () ->
        Log.infof ~ctx:"serve/s1" "loaded (%s)" "c17")
  in
  match lines with
  | [ line ] ->
    Alcotest.(check bool) "ctx before message" true
      (contains line "serve/s1: loaded (c17)");
    (* "YYYY-MM-DD HH:MM:SS.mmm " prefix: fixed-width, ms precision *)
    Alcotest.(check bool) "timestamp shape" true
      (String.length line > 24
      && line.[4] = '-' && line.[7] = '-' && line.[10] = ' '
      && line.[13] = ':' && line.[16] = ':' && line.[19] = '.'
      && line.[23] = ' ')
  | l -> Alcotest.failf "expected 1 line, got %d" (List.length l)

let test_log_would_log () =
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      Log.set_level Log.Error;
      Alcotest.(check bool) "debug gated" false (Log.would_log Log.Debug);
      Alcotest.(check bool) "error passes" true (Log.would_log Log.Error);
      Log.set_level Log.Debug;
      Alcotest.(check bool) "everything passes" true (Log.would_log Log.Debug))

let test_log_level_strings () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "round-trip" true
        (Log.level_of_string (Log.level_to_string l) = Some l))
    [ Log.Debug; Log.Info; Log.Warn; Log.Error ];
  Alcotest.(check bool) "warning alias" true
    (Log.level_of_string "warning" = Some Log.Warn);
  Alcotest.(check bool) "unknown rejected" true
    (Log.level_of_string "loud" = None)

let suite =
  [
    ( "obs-metrics",
      [
        Alcotest.test_case "counter basic + idempotent" `Quick
          test_metrics_counter_basic;
        Alcotest.test_case "kind mismatch raises" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "malformed names rejected" `Quick test_metrics_bad_name;
        Alcotest.test_case "labels distinguish" `Quick test_metrics_labels_distinguish;
        Alcotest.test_case "gauge" `Quick test_metrics_gauge;
        Alcotest.test_case "histogram buckets and sum" `Quick test_metrics_histogram;
        Alcotest.test_case "disabled mutations no-op" `Quick
          test_metrics_disabled_noop;
        Alcotest.test_case "reset keeps handles" `Quick
          test_metrics_reset_keeps_handles;
        Alcotest.test_case "exposition format" `Quick test_metrics_render_format;
        Alcotest.test_case "snapshot sorted" `Quick test_metrics_snapshot_sorted;
      ] );
    ( "obs-trace",
      [
        Alcotest.test_case "disabled records nothing" `Quick
          test_trace_disabled_records_nothing;
        Alcotest.test_case "discard records nothing" `Quick
          test_trace_discard_records_nothing;
        Alcotest.test_case "memory nesting + args" `Quick test_trace_memory_nesting;
        Alcotest.test_case "exception path records" `Quick
          test_trace_exception_path;
        Alcotest.test_case "instant" `Quick test_trace_instant;
        Alcotest.test_case "cross-domain merge" `Quick
          test_trace_cross_domain_merge;
        Alcotest.test_case "resident workers share thread ids" `Quick
          test_trace_resident_tids;
        Alcotest.test_case "write round-trip" `Quick test_trace_write_roundtrip;
      ] );
    ( "obs-log",
      [
        Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
        Alcotest.test_case "ctx and timestamp" `Quick test_log_ctx_and_timestamp;
        Alcotest.test_case "would_log" `Quick test_log_would_log;
        Alcotest.test_case "level strings" `Quick test_log_level_strings;
      ] );
  ]
