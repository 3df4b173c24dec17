(* End-to-end CLI coverage: run the real binary (declared as a test
   dependency in dune) and check exit codes and key output. *)

(* The CLI is built next to this runner: test/main.exe and
   bin/statleak_cli.exe under one build root, whatever the working
   directory. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "statleak_cli.exe")

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Filename.quote cli) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, Buffer.contents buf)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let check_ok msg (code, out) needle =
  if code <> 0 then Alcotest.failf "%s: exit %d\n%s" msg code out;
  if not (contains out needle) then
    Alcotest.failf "%s: output missing %S\n%s" msg needle out

let test_bench_list () = check_ok "bench-list" (run "bench-list") "mult16"
let test_info () = check_ok "info" (run "info c17") "6 cells"

let test_sta () =
  check_ok "sta" (run "sta c17") "critical path"

let test_ssta_critical () =
  check_ok "ssta" (run "ssta c17 --critical 2") "most statistically critical"

let test_leakage () = check_ok "leakage" (run "leakage c17") "mean leakage"

let test_export_bench_roundtrip () =
  let code, out = run "export c17 --format bench" in
  if code <> 0 then Alcotest.failf "export failed: %s" out;
  (* the exported text must re-parse to the same circuit *)
  let c = Sl_netlist.Bench_format.parse_string ~name:"c17" out in
  Alcotest.(check int) "cells" 6 (Sl_netlist.Circuit.num_cells c)

let test_export_verilog () =
  check_ok "verilog" (run "export c17 --format verilog") "endmodule"

let test_optimize_det () =
  check_ok "optimize det"
    (run "optimize c17 --mode det --samples 0 --tmax-factor 1.3")
    "det optimizer: feasible=true"

let test_optimize_rejects_bad_mode () =
  let code, _ = run "optimize c17 --mode frob --samples 0" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_unknown_circuit_fails () =
  let code, out = run "info definitely-not-a-circuit" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  Alcotest.(check bool) "helpful message" true (contains out "bench-list")

let test_parse_file_path () =
  (* write a bench file and load it through the CLI *)
  let path = Filename.temp_file "cli_test" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(a)\nOUTPUT(o)\no = NOT(a)\n";
  close_out oc;
  let r = run (Printf.sprintf "info %s" path) in
  Sys.remove path;
  check_ok "file path" r "1 cells"

let check_clean_error msg (code, out) needle =
  if code = 0 then Alcotest.failf "%s: expected a nonzero exit\n%s" msg out;
  if code = -1 then Alcotest.failf "%s: killed by signal (uncaught exception?)" msg;
  if not (contains out "error:") then
    Alcotest.failf "%s: no one-line error message\n%s" msg out;
  if contains out "Fatal error" || contains out "Raised at" then
    Alcotest.failf "%s: leaked an exception trace\n%s" msg out;
  if not (contains out needle) then
    Alcotest.failf "%s: output missing %S\n%s" msg needle out

let test_unparsable_bench_file () =
  let path = Filename.temp_file "cli_bad" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(a)\nOUTPUT(o)\no = NOT(\n";
  close_out oc;
  let r = run (Printf.sprintf "info %s" path) in
  Sys.remove path;
  check_clean_error "garbage netlist" r ":3:"

let test_structurally_bad_bench_file () =
  let path = Filename.temp_file "cli_dangling" ".bench" in
  let oc = open_out path in
  (* parses fine, but the net "b" is never defined *)
  output_string oc "INPUT(a)\nOUTPUT(o)\no = NAND(a, b)\n";
  close_out oc;
  let r = run (Printf.sprintf "info %s" path) in
  Sys.remove path;
  check_clean_error "dangling net" r "invalid netlist"

let test_missing_lib_file () =
  check_clean_error "missing library"
    (run "sta c17 --lib /definitely/not/a/file.lib")
    "No such file"

let test_unparsable_lib_file () =
  let path = Filename.temp_file "cli_bad" ".lib" in
  let oc = open_out path in
  output_string oc "cell NOT {\n  this is not a library\n";
  close_out oc;
  let r = run (Printf.sprintf "sta c17 --lib %s" path) in
  Sys.remove path;
  check_clean_error "garbage library" r path

(* Bad flag values are usage errors: one line, exit 2, before any work —
   never a library exception surfacing as an internal error. *)
let test_rejects_bad_flag_values () =
  List.iter
    (fun (args, needle) ->
      let ((code, out) as r) = run args in
      check_clean_error args r needle;
      if code <> 2 then Alcotest.failf "%s: exit %d, expected 2\n%s" args code out)
    [
      ("optimize c17 --jobs 0 --samples 0", "--jobs");
      ("optimize mult16 --jobs 500 --samples 0", "--jobs");
      ("mc c17 --samples 0", "--samples");
      ("mc c17 --jobs 0", "--jobs");
      ("mc c17 --jobs 65", "--jobs");
      ("yield c17 --jobs 0", "--jobs");
      ("serve --jobs 65", "--jobs");
      ("serve --jobs 0", "--jobs");
      ("yield c17 --max-samples 0", "--max-samples");
      ("optimize c17 --mode batch --eta 1.5", "--eta");
      ("optimize c17 --eta 0", "--eta");
      ("yield c17 --ci 1.5", "--ci");
      ("yield c17 --ci nan", "--ci");
      ("yield c17 --halfwidth=-0.01", "--halfwidth");
      ("yield c17 --halfwidth inf", "--halfwidth");
      ("mc c17 --sigma-scale=-1", "--sigma-scale");
      ("sta c17 --size-idx 99", "--size-idx");
      ("leakage c17 --size-idx=-1", "--size-idx");
      ("mc c17 --tmax-factor=nan", "--tmax-factor");
      ("optimize c17 --tmax-factor 0 --samples 0", "--tmax-factor");
      ("yield c17 --method lhs --max-samples 100", "--max-samples");
    ]

let test_profile_json () =
  let code, out =
    run "optimize c17 --mode stat --samples 0 --profile-json"
  in
  if code <> 0 then Alcotest.failf "profile-json: exit %d\n%s" code out;
  (* one line of the output is the JSON registry snapshot; it must parse
     and carry the optimizer families *)
  let json_line =
    match
      List.find_opt
        (fun l -> String.length l > 0 && l.[0] = '[')
        (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.failf "no JSON array line in output\n%s" out
  in
  (match Sl_util.Json.of_string json_line with
  | Sl_util.Json.List _ -> ()
  | _ -> Alcotest.fail "profile-json is not a JSON array"
  | exception Sl_util.Json.Parse_error m ->
    Alcotest.failf "profile-json unparsable: %s\n%s" m json_line);
  if not (contains json_line "statleak_opt_vth_moves_total") then
    Alcotest.failf "missing optimizer family\n%s" json_line

let test_trace_export () =
  let path = Filename.temp_file "cli_trace" ".json" in
  let r =
    run (Printf.sprintf "optimize c17 --mode stat --samples 0 --trace %s" path)
  in
  check_ok "optimize --trace" r "trace:";
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Sl_util.Json.of_string text with
  | o ->
    let evs = Option.value ~default:[] (Sl_util.Json.list "traceEvents" o) in
    let complete =
      List.filter
        (fun e -> Sl_util.Json.str "ph" e = Some "X")
        evs
    in
    Alcotest.(check bool) "has complete events" true (List.length complete > 0);
    let names =
      List.filter_map (fun e -> Sl_util.Json.str "name" e) complete
    in
    Alcotest.(check bool) "optimizer spans present" true
      (List.exists (String.equal "opt.optimize") names);
    Alcotest.(check bool) "ssta spans present" true
      (List.exists (String.equal "ssta.forward") names)
  | exception Sl_util.Json.Parse_error m ->
    Alcotest.failf "trace file unparsable: %s" m

(* At most one domain per core takes part in a parallel run, the caller
   and the pool's workers, whatever --jobs asks for: --profile reports
   the domains that take part. *)
let test_profile_domains () =
  let domains = min 4 (1 + max 1 (Domain.recommended_domain_count () - 1)) in
  let r = run "optimize add32 --mode batch --samples 0 --profile --jobs 4" in
  check_ok "level batches" r (Printf.sprintf " on %d domains," domains);
  check_ok "candidate ranking" r (Printf.sprintf "parallel scan on %d domains" domains)

let test_client_no_server () =
  check_clean_error "client without server"
    (run "client --socket /tmp/definitely-no-statleak-daemon.sock ping")
    "cannot reach server"

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "bench-list" `Quick test_bench_list;
        Alcotest.test_case "info" `Quick test_info;
        Alcotest.test_case "sta" `Quick test_sta;
        Alcotest.test_case "ssta --critical" `Quick test_ssta_critical;
        Alcotest.test_case "leakage" `Quick test_leakage;
        Alcotest.test_case "export bench roundtrip" `Quick test_export_bench_roundtrip;
        Alcotest.test_case "export verilog" `Quick test_export_verilog;
        Alcotest.test_case "optimize det" `Quick test_optimize_det;
        Alcotest.test_case "rejects bad mode" `Quick test_optimize_rejects_bad_mode;
        Alcotest.test_case "unknown circuit" `Quick test_unknown_circuit_fails;
        Alcotest.test_case "bench file path" `Quick test_parse_file_path;
        Alcotest.test_case "unparsable bench file" `Quick test_unparsable_bench_file;
        Alcotest.test_case "structurally bad bench" `Quick
          test_structurally_bad_bench_file;
        Alcotest.test_case "missing lib file" `Quick test_missing_lib_file;
        Alcotest.test_case "unparsable lib file" `Quick test_unparsable_lib_file;
        Alcotest.test_case "rejects bad flag values" `Quick test_rejects_bad_flag_values;
        Alcotest.test_case "profile json" `Quick test_profile_json;
        Alcotest.test_case "trace export" `Quick test_trace_export;
        Alcotest.test_case "client without server" `Quick test_client_no_server;
        Alcotest.test_case "profile reports the domains that take part" `Quick
          test_profile_domains;
      ] );
  ]
