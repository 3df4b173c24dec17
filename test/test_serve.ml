(* The serve subsystem: JSON/framing/pool unit tests, the frozen-memo
   sharing contract, and in-process daemon round-trips over a real Unix
   socket — including the bit-identity and optimizer-parity guarantees
   the protocol documents. *)

module Json = Sl_util.Json
module Frame = Sl_util.Frame
module Pool = Sl_util.Parallel.Pool
module Circuit = Sl_netlist.Circuit
module Benchmarks = Sl_netlist.Benchmarks
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Cell_lib = Sl_tech.Cell_lib
module Setup = Statleak.Setup
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Opt_core = Sl_opt.Opt_core
module Protocol = Sl_serve.Protocol
module Server = Sl_serve.Server
module Session = Sl_serve.Session
module Client = Sl_serve.Client

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Str "x\"y\n\\z");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num (-3.0) ]);
        ("d", Json.Obj [ ("nested", Json.Str "") ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.of_string (Json.to_string v) = v)

let test_json_float_bits () =
  (* the printer must round-trip doubles exactly *)
  List.iter
    (fun x ->
      match Json.of_string (Json.to_string (Json.Num x)) with
      | Json.Num y ->
        Alcotest.(check int64) "bits" (Int64.bits_of_float x) (Int64.bits_of_float y)
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1.0 /. 3.0; 1e-300; 153.81777777777776; Float.max_float ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = Json.of_string {|{"s":"x","n":2.5,"i":7,"b":true,"l":[1],"o":{"k":1}}|} in
  Alcotest.(check (option string)) "str" (Some "x") (Json.str "s" v);
  Alcotest.(check (option (float 0.0))) "num" (Some 2.5) (Json.num "n" v);
  Alcotest.(check (option int)) "int" (Some 7) (Json.int "i" v);
  Alcotest.(check (option int)) "int on non-integer" None (Json.int "n" v);
  Alcotest.(check (option bool)) "bool" (Some true) (Json.bool "b" v);
  Alcotest.(check (option int)) "default" (Some 3) (Json.int ~default:3 "missing" v);
  Alcotest.(check bool) "list" true (Json.list "l" v = Some [ Json.Num 1.0 ]);
  Alcotest.(check bool) "mem" true (Json.mem "o" v <> None)

(* ---------- Frame ---------- *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      List.iter
        (fun payload ->
          Frame.write a payload;
          Alcotest.(check string) "payload" payload (Frame.read b))
        [ ""; "x"; String.make 70_000 'q'; "{\"type\":\"ping\"}" ])

let test_frame_closed () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      match Frame.read b with
      | exception Frame.Closed -> ()
      | _ -> Alcotest.fail "expected Closed")

let test_frame_bad_length () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Unix.close b)
    (fun () ->
      (* a length prefix far beyond max_frame must be rejected *)
      let bad = Bytes.create 4 in
      Bytes.set_int32_be bad 0 0x7fffffffl;
      ignore (Unix.write a bad 0 4);
      match Frame.read b with
      | exception Frame.Protocol_error _ -> ()
      | _ -> Alcotest.fail "expected Protocol_error")

(* ---------- Pool ---------- *)

let test_pool_runs_all () =
  let pool = Pool.create ~jobs:3 () in
  let n = 50 in
  let hits = Array.make n 0 in
  let m = Mutex.create () in
  for i = 0 to n - 1 do
    Pool.submit pool (fun () ->
        Mutex.lock m;
        hits.(i) <- hits.(i) + 1;
        Mutex.unlock m)
  done;
  Pool.shutdown pool;
  Alcotest.(check bool) "every task ran once" true (Array.for_all (( = ) 1) hits)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  match Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must raise"

(* ---------- frozen-memo sharing ---------- *)

let test_memo_frozen_concurrent () =
  let lib = Cell_lib.default () in
  let c = Option.get (Benchmarks.by_name "add32") in
  let d = Design.create lib c in
  let memo = Memo.create lib in
  Memo.prefill memo d;
  Memo.freeze memo;
  Alcotest.(check bool) "covers" true (Memo.covers memo d);
  (* sequential reference *)
  let expect = Array.init (Circuit.num_gates c) (fun id -> Memo.gate_delay memo d id) in
  let worker () =
    Array.init (Circuit.num_gates c) (fun id -> Memo.gate_delay memo d id)
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter
    (fun dom ->
      let got = Domain.join dom in
      Alcotest.(check bool) "concurrent reads bit-identical" true (got = expect))
    domains

(* A frozen miss must raise the memo's own error — matched on its
   message, since an array bounds error is an [Invalid_argument] too. *)
let expect_miss what kind arity =
  let msg =
    Printf.sprintf "Memo: lookup miss on frozen table (%s/%d not prefilled)"
      (Sl_netlist.Cell_kind.to_string kind) arity
  in
  match what () with
  | exception Invalid_argument m -> Alcotest.(check string) "miss message" msg m
  | _ -> Alcotest.fail "frozen miss must raise"

let bench_design lib name text =
  Design.create lib (Sl_netlist.Bench_format.parse_string ~name text)

let test_memo_frozen_miss_raises () =
  let module K = Sl_netlist.Cell_kind in
  let lib = Cell_lib.default () in
  let memo = Memo.create lib in
  let c17 = Benchmarks.c17 () in
  let d = Design.create lib c17 in
  Memo.prefill memo d;
  Memo.freeze memo;
  (* c17 is all NAND2/NOT; an unprefetched kind must refuse to fill *)
  expect_miss
    (fun () -> Memo.drive_res memo K.Nor ~arity:4 ~size_idx:0 ~vth_idx:0)
    K.Nor 4;
  (* a filled kind at an arity past its row *)
  expect_miss (fun () -> Memo.input_cap memo K.Nand ~arity:5 ~size_idx:0) K.Nand 5;
  let nand5 =
    bench_design lib "nand5"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(y)\n\
       y = NAND(a, b, c, d, e)\n"
  in
  Alcotest.(check bool) "past the row: covers" false (Memo.covers memo nand5);
  (* a hole inside a row: NAND2 and NAND4 filled, NAND3 not *)
  let memo = Memo.create lib in
  Memo.prefill memo
    (bench_design lib "nand24"
       "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
        y = NAND(a, b)\nz = NAND(a, b, c, d)\n");
  Memo.freeze memo;
  expect_miss (fun () -> Memo.self_load memo K.Nand ~arity:3 ~size_idx:0) K.Nand 3;
  let nand3 =
    bench_design lib "nand3"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NAND(a, b, c)\n"
  in
  Alcotest.(check bool) "hole in the row: covers" false (Memo.covers memo nand3);
  Alcotest.(check bool) "filled arity still a hit" true
    (Memo.drive_res memo K.Nand ~arity:4 ~size_idx:0 ~vth_idx:0
     = Cell_lib.drive_res lib K.Nand ~arity:4 ~size_idx:0 ~vth_idx:0 ~dvth:0.0 ~dl:0.0)

(* ---------- daemon round-trips ---------- *)

let sock_seq = ref 0

let with_server ?(jobs = 4) ?(max_sessions = 8) f =
  incr sock_seq;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sl-test-%d-%d.sock" (Unix.getpid ()) !sock_seq)
  in
  let cfg =
    {
      Server.socket_path = sock;
      jobs;
      max_sessions;
      snapshot_dir = None;
      log_level = Sl_obs.Log.Error;
    }
  in
  let t = Server.create cfg in
  let srv = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join srv)
    (fun () -> f sock t)

let req fields = Json.obj (List.map (fun (k, v) -> (k, v)) fields)
let s k = Json.Str k
let n x = Json.Num x

let rpc ?on_progress c fields = Client.request ?on_progress c (req fields)

let get_str key v = Option.get (Json.str key v)
let get_num key v = Option.get (Json.num key v)
let get_int key v = Option.get (Json.int key v)

let load c ~session ~bench =
  rpc c [ ("type", s "load"); ("session", s session); ("bench", s bench) ]

let edit c ~session ~op ~gate ~value =
  rpc c
    [
      ("type", s "edit");
      ("session", s session);
      ( "ops",
        Json.List [ req [ ("op", s op); ("gate", s gate); ("value", n value) ] ] );
    ]

let analyze c ~session = rpc c [ ("type", s "analyze"); ("session", s session) ]

let analysis_bits v =
  List.map
    (fun k -> (k, get_str k v))
    [ "yield_bits"; "delay_mean_bits"; "delay_sigma_bits"; "leak_mean_bits" ]

let apply_reference_edits c ~session =
  ignore (edit c ~session ~op:"reassign-vth" ~gate:"G10" ~value:1.0);
  ignore (edit c ~session ~op:"resize" ~gate:"G11" ~value:3.0);
  ignore (edit c ~session ~op:"set-load" ~gate:"G16" ~value:1.5)

let test_serve_bit_identity () =
  with_server (fun sock _ ->
      Client.with_connection ~socket:sock (fun c ->
          ignore (load c ~session:"s1" ~bench:"c17");
          apply_reference_edits c ~session:"s1";
          let a = analyze c ~session:"s1" in
          let bits = analysis_bits a in
          (* savepoint, diverge, roll back: analysis must return bit-identically *)
          ignore
            (rpc c [ ("type", s "checkpoint"); ("session", s "s1"); ("name", s "sp") ]);
          ignore (edit c ~session:"s1" ~op:"resize" ~gate:"G19" ~value:0.0);
          ignore (edit c ~session:"s1" ~op:"reassign-vth" ~gate:"G22" ~value:1.0);
          let diverged = analyze c ~session:"s1" in
          Alcotest.(check bool) "diverged state differs" true
            (analysis_bits diverged <> bits);
          let rb =
            rpc c [ ("type", s "rollback"); ("session", s "s1"); ("name", s "sp") ]
          in
          Alcotest.(check int) "reverted gates" 2 (get_int "reverted" rb);
          Alcotest.(check bool) "rollback analysis bit-identical" true
            (analysis_bits rb = bits);
          (* a fresh session given the same edits must agree to the bit *)
          ignore (load c ~session:"s2" ~bench:"c17");
          apply_reference_edits c ~session:"s2";
          let fresh = analyze c ~session:"s2" in
          Alcotest.(check bool) "fresh session bit-identical" true
            (analysis_bits fresh = bits)))

let ints_of_csv str = List.map int_of_string (String.split_on_char ',' str)

(* The daemon's optimize must walk the one-shot CLI run's trajectory at
   its defaults, in either commit policy: on a fresh session, on one
   whose engine has seen edits, analyses and a rollback, on one whose
   edits no analyze has measured yet, and whatever a client still sends
   in the retired "partition" field. *)
let test_serve_optimize_parity mode () =
  with_server (fun sock _ ->
      Client.with_connection ~socket:sock (fun c ->
          let optimize ?on_progress ?(extra = []) session =
            rpc c ?on_progress
              ([
                 ("type", s "optimize");
                 ("session", s session);
                 ("mode", s mode);
                 ("eta", n 0.95);
                 ("detail", Json.Bool true);
               ]
              @ extra)
          in
          ignore (load c ~session:"opt" ~bench:"c17");
          let progressed = ref 0 in
          let resp = optimize ~on_progress:(fun _ -> incr progressed) "opt" in
          Alcotest.(check bool) "progress streamed" true (!progressed > 0);
          ignore (load c ~session:"hist" ~bench:"c17");
          ignore
            (rpc c [ ("type", s "checkpoint"); ("session", s "hist"); ("name", s "start") ]);
          apply_reference_edits c ~session:"hist";
          ignore (analyze c ~session:"hist");
          ignore
            (rpc c [ ("type", s "rollback"); ("session", s "hist"); ("name", s "start") ]);
          let hist = optimize "hist" in
          ignore (load c ~session:"pend" ~bench:"c17");
          apply_reference_edits c ~session:"pend";
          let pend = optimize "pend" in
          ignore (load c ~session:"part" ~bench:"c17");
          let part = optimize ~extra:[ ("partition", Json.Bool true) ] "part" in
          Alcotest.(check string) "partition field: digest" (get_str "digest" resp)
            (get_str "digest" part);
          Alcotest.(check string) "partition field: final yield bits"
            (get_str "final_yield_bits" resp)
            (get_str "final_yield_bits" part);
          (* the one-shot reference: same circuit, same defaults, run directly *)
          let setup = Setup.of_benchmark ~spec:(Sl_variation.Spec.scaled 1.0) "c17" in
          let tmax = Setup.tmax setup ~factor:1.25 in
          let one_shot d =
            ( d,
              if mode = "stat" then
                Stat_opt.optimize (Stat_opt.default_config ~tmax ~eta:0.95) d
                  setup.Setup.model
              else
                Batch_opt.optimize (Batch_opt.default_config ~tmax ~eta:0.95) d
                  setup.Setup.model )
          in
          let fresh = one_shot (Setup.fresh_design setup) in
          let edited =
            let d = Setup.fresh_design setup in
            let id g = (Option.get (Circuit.find setup.Setup.circuit g)).Circuit.id in
            Design.set_vth d (id "G10") 1;
            Design.set_size d (id "G11") 3;
            Design.set_extra_load d (id "G16") 1.5;
            one_shot d
          in
          List.iter
            (fun (case, resp, ((d : Design.t), (st : Opt_core.stats))) ->
              let check_int what want key =
                Alcotest.(check int) (case ^ what) want (get_int key resp)
              in
              Alcotest.(check string) (case ^ "mode") mode (get_str "mode" resp);
              check_int "vth moves" st.Opt_core.vth_moves "vth_moves";
              check_int "size moves" st.Opt_core.size_moves "size_moves";
              check_int "trials" st.Opt_core.trials "trials";
              check_int "refreshes" st.Opt_core.refreshes "refreshes";
              check_int "rollbacks" st.Opt_core.rollbacks "rollbacks";
              check_int "bands committed" st.Opt_core.bands_committed "bands_committed";
              Alcotest.(check string) (case ^ "final yield bits")
                (Protocol.bits_of_float st.Opt_core.final_yield)
                (get_str "final_yield_bits" resp);
              let assignment = Option.get (Json.mem "assignment" resp) in
              Alcotest.(check (list int)) (case ^ "vth assignment")
                (Array.to_list d.Design.vth_idx)
                (ints_of_csv (get_str "vth" assignment));
              Alcotest.(check (list int)) (case ^ "size assignment")
                (Array.to_list d.Design.size_idx)
                (ints_of_csv (get_str "size" assignment)))
            [
              ("", resp, fresh);
              ("after edits and a rollback: ", hist, fresh);
              ("on unmeasured edits: ", pend, edited);
            ]))

let counters_of t = Server.counters t

(* The daemon's yield request must return the in-process estimate bit for
   bit: same design, same tmax, same seed, same estimator.  The daemon
   hands the estimator its engine's circuit-delay form; the in-process
   run derives it with a from-scratch SSTA.  [edits] (gate, threshold)
   are sent, and analyzed, before the request. *)
let yield_parity ~bench ?(edits = []) ~halfwidth ~max_samples () =
  with_server (fun sock _ ->
      Client.with_connection ~socket:sock (fun c ->
          ignore (load c ~session:"y" ~bench);
          List.iter
            (fun (gate, v) ->
              ignore (edit c ~session:"y" ~op:"reassign-vth" ~gate ~value:(float_of_int v));
              ignore (analyze c ~session:"y"))
            edits;
          let progressed = ref 0 in
          let resp =
            rpc c
              ~on_progress:(fun _ -> incr progressed)
              [
                ("type", s "yield");
                ("session", s "y");
                ("method", s "is+cv");
                ("halfwidth", n halfwidth);
                ("max_samples", n (float_of_int max_samples));
                ("seed", n 42.0);
              ]
          in
          Alcotest.(check bool) "progress streamed" true (!progressed > 0);
          let setup = Setup.of_benchmark ~spec:(Sl_variation.Spec.scaled 1.0) bench in
          let d = Setup.fresh_design setup in
          List.iter
            (fun (gate, v) ->
              Design.set_vth d (Option.get (Circuit.find setup.Setup.circuit gate)).Circuit.id v)
            edits;
          let e =
            Sl_yield.Seq.estimate ~jobs:1 ~method_:Sl_yield.Seq.Is_cv ~max_samples
              ~target_halfwidth:halfwidth ~seed:42
              ~tmax:(Setup.tmax setup ~factor:1.25)
              d setup.Setup.model
          in
          Alcotest.(check string) "value bits"
            (Protocol.bits_of_float e.Sl_yield.Estimate.value)
            (get_str "value_bits" resp);
          Alcotest.(check int) "samples" e.Sl_yield.Estimate.samples_used
            (get_int "samples" resp)))

let test_serve_yield_parity () =
  yield_parity ~bench:"add32" ~halfwidth:0.003 ~max_samples:4096 ()

(* ten register cones, the engine's form stitched from their boundary
   arrivals after an edit re-timed one of them *)
let test_serve_yield_parity_cones () =
  yield_parity ~bench:"spipe30k" ~edits:[ ("c4_9_3", 1) ] ~halfwidth:0.0 ~max_samples:256 ()

let test_serve_eviction_restore () =
  with_server ~max_sessions:1 (fun sock t ->
      Client.with_connection ~socket:sock (fun c ->
          ignore (load c ~session:"a" ~bench:"c17");
          apply_reference_edits c ~session:"a";
          ignore
            (rpc c [ ("type", s "checkpoint"); ("session", s "a"); ("name", s "sp") ]);
          let before = analysis_bits (analyze c ~session:"a") in
          (* loading a second session must push "a" out *)
          ignore (load c ~session:"b" ~bench:"add32");
          let cs = counters_of t in
          Alcotest.(check bool) "evicted" true (cs.Server.evictions >= 1);
          Alcotest.(check int) "one live" 1 cs.Server.live_sessions;
          (* touching "a" restores it transparently and bit-identically *)
          let after = analysis_bits (analyze c ~session:"a") in
          Alcotest.(check bool) "restored bit-identical" true (after = before);
          let cs = counters_of t in
          Alcotest.(check bool) "restored" true (cs.Server.restores >= 1);
          (* savepoints survive eviction: roll back on the restored session *)
          let rb =
            rpc c [ ("type", s "rollback"); ("session", s "a"); ("name", s "sp") ]
          in
          Alcotest.(check int) "no drift to revert" 0 (get_int "reverted" rb);
          ignore (rpc c [ ("type", s "close"); ("session", s "a") ]);
          ignore (rpc c [ ("type", s "close"); ("session", s "b") ]);
          let cs = counters_of t in
          Alcotest.(check int) "no sessions leaked" 0
            (cs.Server.live_sessions + cs.Server.evicted_sessions)))

let test_serve_concurrent_sessions () =
  with_server ~jobs:4 (fun sock _ ->
      (* reference numbers computed on one connection first *)
      let reference =
        Client.with_connection ~socket:sock (fun c ->
            ignore (load c ~session:"ref" ~bench:"c17");
            apply_reference_edits c ~session:"ref";
            let bits = analysis_bits (analyze c ~session:"ref") in
            ignore (rpc c [ ("type", s "close"); ("session", s "ref") ]);
            bits)
      in
      let worker i =
        let session = Printf.sprintf "w%d" i in
        Client.with_connection ~socket:sock (fun c ->
            ignore (load c ~session ~bench:"c17");
            let result = ref [] in
            for _ = 1 to 5 do
              apply_reference_edits c ~session;
              result := analysis_bits (analyze c ~session);
              ignore
                (rpc c
                   [ ("type", s "checkpoint"); ("session", s session); ("name", s "x") ])
            done;
            ignore (rpc c [ ("type", s "close"); ("session", s session) ]);
            !result)
      in
      let domains = Array.init 3 (fun i -> Domain.spawn (fun () -> worker i)) in
      Array.iter
        (fun dom ->
          Alcotest.(check bool) "concurrent session bit-identical" true
            (Domain.join dom = reference))
        domains)

let expect_error what thunk =
  match thunk () with
  | exception Client.Server_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a server error" what

let test_serve_error_paths () =
  with_server (fun sock _ ->
      Client.with_connection ~socket:sock (fun c ->
          expect_error "unknown session" (fun () -> analyze c ~session:"ghost");
          expect_error "unknown bench" (fun () -> load c ~session:"x" ~bench:"nope");
          ignore (load c ~session:"x" ~bench:"c17");
          expect_error "duplicate session" (fun () -> load c ~session:"x" ~bench:"c17");
          expect_error "unknown gate" (fun () ->
              edit c ~session:"x" ~op:"resize" ~gate:"NOGATE" ~value:1.0);
          expect_error "bad edit op" (fun () ->
              edit c ~session:"x" ~op:"frobnicate" ~gate:"G10" ~value:1.0);
          expect_error "unknown savepoint" (fun () ->
              rpc c [ ("type", s "rollback"); ("session", s "x"); ("name", s "none") ]);
          expect_error "negative load" (fun () ->
              edit c ~session:"x" ~op:"set-load" ~gate:"G10" ~value:(-1.0));
          expect_error "unknown type" (fun () -> rpc c [ ("type", s "warp") ]);
          expect_error "yield target outside (0, 1)" (fun () ->
              rpc c [ ("type", s "optimize"); ("session", s "x"); ("eta", n 1.5) ]);
          (* jobs past the domain bound are refused before any domain starts *)
          List.iter
            (fun (kind, jobs) ->
              expect_error (Printf.sprintf "%s jobs %g" kind jobs) (fun () ->
                  rpc c [ ("type", s kind); ("session", s "x"); ("jobs", n jobs) ]))
            [
              ("optimize", 0.0);
              ("optimize", float_of_int (Sl_util.Parallel.max_jobs + 1));
              ("yield", 0.0);
              ("yield", 500.0);
            ];
          (* an edit applies all of its ops or none: a bad second op
             leaves the design, the engine and the analysis untouched *)
          let before = analysis_bits (analyze c ~session:"x") in
          List.iter
            (fun (what, op, gate, value) ->
              expect_error what (fun () ->
                  rpc c
                    [
                      ("type", s "edit");
                      ("session", s "x");
                      ( "ops",
                        Json.List
                          [
                            req [ ("op", s "reassign-vth"); ("gate", s "G10"); ("value", n 1.0) ];
                            req [ ("op", s op); ("gate", s gate); ("value", n value) ];
                          ] );
                    ]);
              Alcotest.(check bool) (what ^ ": analysis unchanged") true
                (analysis_bits (analyze c ~session:"x") = before))
            [
              ("second op: unknown gate", "resize", "NOGATE", 1.0);
              ("second op: size out of range", "resize", "G11", 99.0);
              ("second op: negative load", "set-load", "G16", -1.0);
            ];
          expect_error "netlist parse error" (fun () ->
              rpc c
                [
                  ("type", s "load");
                  ("session", s "y");
                  ( "netlist",
                    req [ ("name", s "bad"); ("text", s "o = NOT(\ngarbage") ] );
                ]);
          (* after all that, the session is still intact and usable *)
          ignore (analyze c ~session:"x")))

(* A client that hangs up mid-optimize makes the progress callback raise.
   The moves made so far stay in the design, and the session's engine
   must have them too: the next analyze reads the same bits as a session
   rebuilt from scratch at that assignment. *)
exception Hang_up

let test_session_optimize_hangup () =
  let source =
    {
      Session.circuit = Session.Bench "add32";
      lib_file = None;
      sigma_scale = 1.0;
      base_size_idx = 2;
      tmax_factor = 1.25;
    }
  in
  let sess = Session.create ~name:"h" source in
  let loaded = Session.analyze sess in
  let progress (p : Opt_core.progress) = if p.Opt_core.stage = "reduce" then raise Hang_up in
  (match Session.optimize ~progress sess ~mode:`Stat ~eta:0.95 with
  | _ -> Alcotest.fail "the progress callback never reached a reduce point"
  | exception Hang_up -> ());
  let a = Session.analyze sess in
  let r = Session.analyze (Session.restore ~name:"r" (Session.snapshot sess)) in
  Alcotest.(check bool) "moves were made" true
    (a.Session.high_vth > loaded.Session.high_vth);
  let bits x = Protocol.bits_of_float x in
  List.iter
    (fun (what, f) ->
      Alcotest.(check string) what (bits (f r)) (bits (f a)))
    [
      ("yield", fun (x : Session.analysis) -> x.Session.yield);
      ("delay mean", fun x -> x.Session.delay_mean);
      ("delay sigma", fun x -> x.Session.delay_sigma);
      ("leak mean", fun x -> x.Session.leak_mean);
    ];
  Alcotest.(check int) "high-vth gates" r.Session.high_vth a.Session.high_vth

(* A pipeline session is timed as register cones; an edit re-times its
   cone only, and reads the bits a fresh session given the same edit
   does, and a session built from scratch at that assignment. *)
let test_session_register_cones () =
  let source =
    {
      Session.circuit = Session.Bench "spipe30k";
      lib_file = None;
      sigma_scale = 1.0;
      base_size_idx = 2;
      tmax_factor = 1.25;
    }
  in
  let edits = [ Session.Reassign_vth ("c4_9_3", 1); Session.Resize ("c7_2_10", 0) ] in
  let a = Session.create ~name:"a" source in
  Alcotest.(check int) "cones" 10 (Sl_ssta.Hier.num_partitions a.Session.engine);
  ignore (Session.analyze a);
  Session.apply_edits a edits;
  let edited = Session.analyze a in
  let b = Session.create ~name:"b" source in
  Session.apply_edits b edits;
  let fresh = Session.analyze b in
  let scratch = Session.analyze (Session.restore ~name:"c" (Session.snapshot a)) in
  let bits (x : Session.analysis) =
    List.map Protocol.bits_of_float
      [ x.Session.yield; x.Session.delay_mean; x.Session.delay_sigma; x.Session.leak_mean ]
  in
  Alcotest.(check (list string)) "fresh session" (bits fresh) (bits edited);
  Alcotest.(check (list string)) "from scratch" (bits scratch) (bits edited)

(* No reply reads the worst-path arrays, so an analyze leaves their
   backward repair queued: seeded edit + analyze rounds move no backward
   counter.  The full sync an optimize starts with does the repair, and
   then the engine audits and its path arrays are a freshly loaded
   session's, bit for bit. *)
let defers_path_repair bench () =
  let source =
    {
      Session.circuit = Session.Bench bench;
      lib_file = None;
      sigma_scale = 1.0;
      base_size_idx = 2;
      tmax_factor = 1.25;
    }
  in
  let a = Session.create ~name:"a" source in
  let engine = a.Session.engine in
  let cells =
    Array.of_list
      (List.filter_map
         (fun (g : Circuit.gate) ->
           if g.Circuit.kind <> Sl_netlist.Cell_kind.Pi then Some g.Circuit.name else None)
         (Array.to_list a.Session.setup.Setup.circuit.Circuit.gates))
  in
  let rng = Sl_util.Rng.create 7 in
  let bwd () = (Sl_ssta.Hier.stats engine).Sl_ssta.Incremental.bwd_propagated in
  let before = bwd () in
  for _ = 1 to 20 do
    let gate = cells.(Sl_util.Rng.int rng (Array.length cells)) in
    let e =
      if Sl_util.Rng.int rng 3 = 0 then Session.Resize (gate, Sl_util.Rng.int rng 4)
      else Session.Reassign_vth (gate, Sl_util.Rng.int rng 2)
    in
    Session.apply_edits a [ e ];
    ignore (Session.analyze a)
  done;
  Alcotest.(check int) "no backward propagation" before (bwd ());
  Sl_ssta.Hier.sync engine;
  Alcotest.(check bool) "the full sync repairs" true (bwd () > before);
  Alcotest.(check bool) "audit" true (Sl_ssta.Hier.audit engine);
  let fresh = (Session.restore ~name:"f" (Session.snapshot a)).Session.engine in
  let bits arr = Array.to_list (Array.map Int64.bits_of_float arr) in
  Alcotest.(check bool) "path_mu bits" true
    (bits (Sl_ssta.Hier.path_mu fresh) = bits (Sl_ssta.Hier.path_mu engine));
  Alcotest.(check bool) "path_sigma bits" true
    (bits (Sl_ssta.Hier.path_sigma fresh) = bits (Sl_ssta.Hier.path_sigma engine))

let test_serve_metrics () =
  with_server (fun sock _ ->
      Client.with_connection ~socket:sock (fun c ->
          ignore (load c ~session:"m1" ~bench:"c17");
          ignore (analyze c ~session:"m1");
          let resp = rpc c [ ("type", s "metrics") ] in
          let text = get_str "metrics" resp in
          let expect needle =
            let n = String.length needle and h = String.length text in
            let rec loop i =
              i + n <= h && (String.sub text i n = needle || loop (i + 1))
            in
            if not (loop 0) then
              Alcotest.failf "metrics exposition missing %S\n%s" needle text
          in
          (* global serve families *)
          expect "# TYPE statleak_serve_requests_total counter";
          expect "statleak_serve_requests_total ";
          expect "statleak_serve_connections_total ";
          expect "statleak_serve_live_sessions 1";
          (* per-session families carry the session label *)
          expect "statleak_session_requests_total{session=\"m1\"}"))

let test_serve_handshake_version () =
  with_server (fun sock _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Protocol.send fd (req [ ("type", s "hello"); ("version", n 999.0) ]);
          let resp = Protocol.recv fd in
          Alcotest.(check string) "rejected" "error" (Protocol.frame_type resp)))

let suite =
  [
    ( "serve-json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "float bits" `Quick test_json_float_bits;
        Alcotest.test_case "parse errors" `Quick test_json_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "serve-frame",
      [
        Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
        Alcotest.test_case "closed" `Quick test_frame_closed;
        Alcotest.test_case "bad length" `Quick test_frame_bad_length;
      ] );
    ( "serve-pool",
      [
        Alcotest.test_case "runs all tasks" `Quick test_pool_runs_all;
        Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
      ] );
    ( "serve-memo",
      [
        Alcotest.test_case "frozen concurrent reads" `Quick test_memo_frozen_concurrent;
        Alcotest.test_case "frozen miss raises" `Quick test_memo_frozen_miss_raises;
      ] );
    ( "serve",
      [
        Alcotest.test_case "edit/rollback bit-identity" `Quick test_serve_bit_identity;
        Alcotest.test_case "optimize parity" `Quick (test_serve_optimize_parity "stat");
        Alcotest.test_case "optimize parity (batch)" `Quick
          (test_serve_optimize_parity "batch");
        Alcotest.test_case "yield parity" `Quick test_serve_yield_parity;
        Alcotest.test_case "yield parity (register cones)" `Quick
          test_serve_yield_parity_cones;
        Alcotest.test_case "eviction and restore" `Quick test_serve_eviction_restore;
        Alcotest.test_case "concurrent sessions" `Quick test_serve_concurrent_sessions;
        Alcotest.test_case "error paths" `Quick test_serve_error_paths;
        Alcotest.test_case "optimize hang-up keeps the engine in step" `Quick
          test_session_optimize_hangup;
        Alcotest.test_case "register-cone session" `Quick test_session_register_cones;
        Alcotest.test_case "analyze defers the path repair" `Quick
          (defers_path_repair "add32");
        Alcotest.test_case "analyze defers the path repair (register cones)" `Quick
          (defers_path_repair "spipe30k");
        Alcotest.test_case "metrics exposition" `Quick test_serve_metrics;
        Alcotest.test_case "handshake version" `Quick test_serve_handshake_version;
      ] );
  ]
