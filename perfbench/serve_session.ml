(* serve-session: a closed loop against `statleak serve --jobs 2` run as
   a child process (out of process, so the daemon's GC pauses never stop
   the client's clock and the other way round).  Two client connections,
   one per daemon worker, each on its own domain:

   - one session loads the seeded ~2000-gate DAG as netlist text, the
     other loads mult16 by name;
   - each sends seeded round trips — an edit request of 1-4 operations
     (mostly reassign-vth, some resize / set-load) then an analyze — with
     a checkpoint every 50 round trips and, every 200, a rollback to the
     checkpoint taken 50 earlier, whose analysis must match bit for bit;
   - then rolls back to the loaded design and sends one IS+CV yield
     request and one batch optimize, and rolls back again, which must
     reproduce the load-time analysis.

   The incremental engine sees one small edit at a time, and every
   analyze recomputes leakage from scratch; wire encoding and session
   locking are on the path of every request.  The client speaks the
   protocol directly on the wire layer (what Serve.Client.request does),
   so JSON encode and decode are timed as calls of their own. *)

open Harness
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Generators = Sl_netlist.Generators
module Benchmarks = Sl_netlist.Benchmarks
module Bench_format = Sl_netlist.Bench_format
module Frame = Sl_util.Frame
module Protocol = Sl_serve.Protocol

let setup_reps = 2
let rounds = 400
let checkpoint_every = 50
let rollback_every = 200

(* ---------- the wire ---------- *)

let str k v = (k, Json.Str v)
let num k v = (k, Json.Num v)

let errors = Atomic.make 0

(* One request/response exchange; progress frames are read and dropped.
   An error frame fails the operation. *)
let request fd kind fields =
  let frame =
    timed ("serve." ^ kind) (fun () ->
        let text = timed "util.json_encode" (fun () -> Json.to_string (Json.obj (str "type" kind :: fields))) in
        Frame.write fd text;
        let rec wait () =
          let payload = Frame.read fd in
          let frame = timed "util.json_decode" (fun () -> Json.of_string payload) in
          if Protocol.is_progress frame then wait () else frame
        in
        wait ())
  in
  let ok = Protocol.frame_type frame = "ok" in
  if not ok then Atomic.incr errors;
  check (kind ^ " request answered ok") ok;
  frame

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    Protocol.send fd (Protocol.hello ());
    if Protocol.frame_type (Protocol.recv fd) <> "hello" then failwith "serve handshake refused";
    Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* The analysis fields that travel with their IEEE bits. *)
let analysis_bits frame =
  String.concat "/"
    (List.map
       (fun k -> Option.value ~default:"?" (Json.str (k ^ "_bits") frame))
       [ "yield"; "delay_mean"; "delay_sigma"; "leak_mean" ])

(* ---------- daemon lifecycle ---------- *)

type daemon = { pid : int; sock : string; conns : Unix.file_descr array }

(* The CLI run.sh builds next to the benchmark; paths are relative to the
   checkout root, where run.sh starts the benchmark. *)
let cli = "_build/default/bin/statleak_cli.exe"

let spawn ~sock =
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; string_of_int jobs; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = now () +. 30.0 in
  let rec wait_ready () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "serve daemon exited during start-up"
    | _ -> (
      match connect sock with
      | Some fd -> fd
      | None ->
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "serve daemon did not come up"
        end;
        Unix.sleepf 0.002;
        wait_ready ())
  in
  let first = wait_ready () in
  (pid, first)

let stop d =
  (try ignore (request d.conns.(0) "shutdown" []) with _ -> Unix.kill d.pid Sys.sigkill);
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.conns;
  ignore (Unix.waitpid [] d.pid)

(* ---------- sessions ---------- *)

type session = {
  name : string;
  source : (string * Json.t) list;  (* the load request's circuit field *)
  gates : string array;             (* editable (non-PI) nets *)
}

type state = { daemon : daemon; sessions : session array; loaded : string array }

let cell_names (c : Circuit.t) =
  Array.to_list c.Circuit.gates
  |> List.filter_map (fun (g : Circuit.gate) ->
         if g.Circuit.kind = Cell_kind.Pi then None else Some g.Circuit.name)
  |> Array.of_list

let sessions seed =
  let dag =
    timed "netlist.build" (fun () ->
        Generators.random_dag_named ~name:(Printf.sprintf "dag%d" seed) ~seed ~gates:2000
          ~inputs:120 ~outputs:64)
  in
  let text = timed "netlist.to_bench" (fun () -> Bench_format.to_string dag) in
  let mult = timed "netlist.build" (fun () -> Option.get (Benchmarks.by_name "mult16")) in
  [|
    {
      name = "dag";
      source = [ ("netlist", Json.obj [ str "name" dag.Circuit.name; str "text" text ]) ];
      gates = cell_names dag;
    };
    { name = "mult16"; source = [ str "bench" "mult16" ]; gates = cell_names mult };
  |]

let setup ~sock seed () =
  let sessions = sessions seed in
  let pid, first = timed "serve.spawn" (fun () -> spawn ~sock) in
  let second =
    match connect sock with Some fd -> fd | None -> failwith "second serve connection refused"
  in
  let daemon = { pid; sock; conns = [| first; second |] } in
  let loaded =
    Array.mapi
      (fun i s -> analysis_bits (request daemon.conns.(i) "load" (str "session" s.name :: s.source)))
      sessions
  in
  { daemon; sessions; loaded }

(* ---------- the closed loop ---------- *)

type barrier = { m : Mutex.t; c : Condition.t; mutable waiting : int; mutable generation : int }

let barrier () = { m = Mutex.create (); c = Condition.create (); waiting = 0; generation = 0 }

let await b n =
  Mutex.protect b.m (fun () ->
      let gen = b.generation in
      b.waiting <- b.waiting + 1;
      if b.waiting = n then begin
        b.waiting <- 0;
        b.generation <- gen + 1;
        Condition.broadcast b.c
      end
      else
        while b.generation = gen do
          Condition.wait b.c b.m
        done)

type client_result = {
  latencies : float list;  (* edit + analyze round trips, seconds *)
  requests : int;
  yield_samples : float;
  yield_ess : float;
  optimize_leak : float;  (* E[leak] after the batch optimize *)
  load_leak : float;
}

let edit_op rng gates =
  let gate = gates.(Random.State.int rng (Array.length gates)) in
  let op, value =
    let u = Random.State.float rng 1.0 in
    if u < 0.7 then ("reassign-vth", float_of_int (Random.State.int rng 2))
    else if u < 0.9 then ("resize", float_of_int (Random.State.int rng 7))
    else ("set-load", float_of_int (Random.State.int rng 17) *. 0.5)
  in
  Json.obj [ str "op" op; str "gate" gate; num "value" value ]

let client ~seed ~barrier:b st i =
  let fd = st.daemon.conns.(i) in
  let s = st.sessions.(i) in
  let session = str "session" s.name in
  let n = ref 0 in
  let req kind fields =
    incr n;
    request fd kind (session :: fields)
  in
  let rng = Random.State.make [| seed; i |] in
  let latencies = ref [] in
  let last = ref st.loaded.(i) in
  let saved = Hashtbl.create 16 in
  ignore (req "checkpoint" [ str "name" "start" ]);
  for k = 1 to rounds do
    let ops = List.init (1 + Random.State.int rng 4) (fun _ -> edit_op rng s.gates) in
    let t0 = now () in
    ignore (req "edit" [ ("ops", Json.List ops) ]);
    let a = req "analyze" [] in
    latencies := (now () -. t0) :: !latencies;
    last := analysis_bits a;
    if k mod rollback_every = 0 then begin
      let target = k - checkpoint_every in
      let r = req "rollback" [ str "name" (Printf.sprintf "cp%d" target) ] in
      last := analysis_bits r;
      check
        (Printf.sprintf "%s rollback to cp%d matches its checkpoint" s.name target)
        (Hashtbl.find_opt saved target = Some !last)
    end;
    if k mod checkpoint_every = 0 then begin
      ignore (req "checkpoint" [ str "name" (Printf.sprintf "cp%d" k) ]);
      Hashtbl.replace saved k !last
    end
  done;
  check_repeat (s.name ^ " edit-stream analysis") !last;
  let back = req "rollback" [ str "name" "start" ] in
  check (s.name ^ " rollback to start matches the load") (analysis_bits back = st.loaded.(i));
  await b 2;
  let y = req "yield" [ str "method" "is+cv"; num "seed" 1.0 ] in
  await b 2;
  let o = req "optimize" [ str "mode" "batch"; num "eta" 0.95; num "jobs" 1.0 ] in
  check (s.name ^ " batch optimize feasible") (Json.bool "feasible" o = Some true);
  let opt_leak = Option.bind (Json.mem "analysis" o) (Json.num "leak_mean") in
  check_repeat (s.name ^ " optimize result")
    (Option.value ~default:"" (Json.str "digest" o)
    ^ Option.fold ~none:"" ~some:analysis_bits (Json.mem "analysis" o));
  let final = req "rollback" [ str "name" "start" ] in
  check (s.name ^ " rollback after optimize matches the load") (analysis_bits final = st.loaded.(i));
  let num_of k v = Option.value ~default:0.0 (Json.num k v) in
  {
    latencies = !latencies;
    requests = !n;
    yield_samples = num_of "samples" y;
    yield_ess = num_of "ess" y;
    optimize_leak = Option.value ~default:0.0 opt_leak;
    load_leak = num_of "leak_mean" back;
  }

let scrape st =
  Option.value ~default:"" (Json.str "metrics" (request st.daemon.conns.(0) "metrics" []))

type totals = {
  mutable latencies : float list;  (* untraced iterations only *)
  mutable last : client_result array;
}

let run ~sock ~seed ~seconds ~trace =
  let t = { latencies = []; last = [||] } in
  (* the live daemon, so an exception anywhere still stops it *)
  let daemon = ref None in
  let setup () =
    let st = setup ~sock seed () in
    daemon := Some st.daemon;
    st
  in
  let teardown st =
    stop st.daemon;
    daemon := None
  in
  let flow st _ =
    let before = counts_of (exposition_total (scrape st)) in
    let b = barrier () in
    let domains =
      Array.init 2 (fun c ->
          Domain.spawn (fun () -> Trace.span "bench.client" (fun () -> client ~seed ~barrier:b st c)))
    in
    let results = Array.map Domain.join domains in
    t.last <- results;
    if Trace.sink () = Trace.Disabled then
      t.latencies <-
        List.concat_map (fun (c : client_result) -> c.latencies) (Array.to_list results)
        @ t.latencies;
    counts_delta before (counts_of (exposition_total (scrape st)))
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Option.iter stop !daemon)
      (fun () -> measure ~trace ~seconds ~setup_reps ~setup ~teardown ~flow ~root:"bench.client" ())
  in
  let sum_over f = Array.fold_left (fun acc c -> acc +. f c) 0.0 t.last in
  let load_leak = sum_over (fun c -> c.load_leak) in
  let opt_leak = sum_over (fun c -> c.optimize_leak) in
  let headline =
    [
      metric "edit_analyze_p50_ms" "ms" (1e3 *. quantile t.latencies 0.5);
      metric "edit_analyze_p99_ms" "ms" (1e3 *. quantile t.latencies 0.99);
      metric "edit_analyze_samples" "count" (float_of_int (List.length t.latencies));
      metric "yield_estimate_s" "s" (per_iter r "serve.yield");
      metric "batch_optimize_s" "s" (per_iter r "serve.optimize");
      metric "batch_leak_reduction_pct" "%" (pct (load_leak -. opt_leak) load_leak);
      metric "load_ms" "ms" (1e3 *. median (call_seconds "serve.load" (setup_phases r)));
    ]
  in
  let extra =
    [
      ("serve.requests", sum_over (fun c -> float_of_int c.requests));
      ("serve.errors", float_of_int (Atomic.get errors));
      ("yield.dies_used", sum_over (fun c -> c.yield_samples));
      ("yield.ess", sum_over (fun c -> c.yield_ess));
    ]
  in
  (r, headline, extra)
