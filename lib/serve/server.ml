module Json = Sl_util.Json
module Frame = Sl_util.Frame
module Parallel = Sl_util.Parallel
module Pool = Parallel.Pool
module Circuit = Sl_netlist.Circuit
module Bench_format = Sl_netlist.Bench_format
module Design = Sl_tech.Design
module Memo = Sl_tech.Memo
module Cell_lib = Sl_tech.Cell_lib
module Liberty = Sl_tech.Liberty
module Hier = Sl_ssta.Hier
module Setup = Statleak.Setup
module Opt_core = Sl_opt.Opt_core
module Yield_seq = Sl_yield.Seq
module Estimate = Sl_yield.Estimate
module Log = Sl_obs.Log
module Metrics = Sl_obs.Metrics

type config = {
  socket_path : string;
  jobs : int;
  max_sessions : int;
  snapshot_dir : string option;
  log_level : Log.level;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 4;
    max_sessions = 8;
    snapshot_dir = None;
    log_level = Log.Warn;
  }

(* Daemon-global families, live-incremented from whichever pool domain
   handles the request; the [metrics] endpoint renders them plus every
   engine family the sessions feed (SSTA, incremental, optimizer, MC). *)
let m_requests =
  Metrics.counter ~help:"Protocol requests handled" "statleak_serve_requests_total"

let m_connections =
  Metrics.counter ~help:"Client connections accepted"
    "statleak_serve_connections_total"

let m_evictions =
  Metrics.counter ~help:"Sessions evicted to disk snapshots"
    "statleak_serve_evictions_total"

let m_restores =
  Metrics.counter ~help:"Sessions restored from disk snapshots"
    "statleak_serve_restores_total"

let g_live_sessions =
  Metrics.gauge ~help:"Sessions currently live in memory"
    "statleak_serve_live_sessions"

let g_evicted_sessions =
  Metrics.gauge ~help:"Sessions currently evicted to disk"
    "statleak_serve_evicted_sessions"

let g_queue_depth =
  Metrics.gauge ~help:"Connections queued for a free pool worker"
    "statleak_serve_pool_queue_depth"

let session_requests name =
  Metrics.counter ~help:"Requests touching this session"
    ~labels:[ ("session", name) ]
    "statleak_session_requests_total"

let session_edits name =
  Metrics.counter ~help:"Gate edits applied to this session"
    ~labels:[ ("session", name) ]
    "statleak_session_edits_total"

let session_optimizes name =
  Metrics.counter ~help:"Optimize runs on this session"
    ~labels:[ ("session", name) ]
    "statleak_session_optimizes_total"

type entry =
  | Live of Session.t
  | Evicted of string  (* snapshot file *)
  | Restoring  (* reserved: a restore or initial load is in flight *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  snapshot_dir : string;
  memo : Memo.t;
  registry : (string, entry) Hashtbl.t;
  stamps : (string, int) Hashtbl.t;  (* LRU clock value per session *)
  reg : Mutex.t;  (* guards registry/stamps/conns/counters/stopping *)
  mutable clock : int;
  mutable snap_seq : int;
  mutable conns : Unix.file_descr list;
  mutable stopping : bool;
  mutable evictions : int;
  mutable restores : int;
  mutable requests : int;
  mutable connections : int;
  pool : Pool.t;
}

type counters = {
  live_sessions : int;
  evicted_sessions : int;
  evictions : int;
  restores : int;
  requests : int;
  connections : int;
}

(* Leveled, timestamped logging; session-scoped lines carry the session
   name in the context tag (serve/<session>). *)
let ctx = "serve"
let sctx name = "serve/" ^ name

(* The shared memo covers every library kind up to this fanin width; a
   session whose circuit is wider silently gets a private memo. *)
let shared_memo_arity = 12

let create cfg =
  if cfg.jobs < 1 || cfg.jobs > Parallel.max_jobs then
    invalid_arg
      (Printf.sprintf "Server.create: jobs must lie in [1, %d]" Parallel.max_jobs);
  if cfg.max_sessions < 1 then invalid_arg "Server.create: max_sessions < 1";
  Log.set_level cfg.log_level;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let snapshot_dir =
    match cfg.snapshot_dir with
    | Some d -> d
    | None -> cfg.socket_path ^ ".sessions"
  in
  if not (Sys.file_exists snapshot_dir) then Unix.mkdir snapshot_dir 0o700;
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let memo = Memo.create (Cell_lib.default ()) in
  Memo.prefill_kinds memo ~max_arity:shared_memo_arity;
  Memo.freeze memo;
  {
    cfg;
    listen_fd;
    snapshot_dir;
    memo;
    registry = Hashtbl.create 16;
    stamps = Hashtbl.create 16;
    reg = Mutex.create ();
    clock = 0;
    snap_seq = 0;
    conns = [];
    stopping = false;
    evictions = 0;
    restores = 0;
    requests = 0;
    connections = 0;
    pool = Pool.create ~jobs:cfg.jobs ();
  }

let counters t =
  Mutex.lock t.reg;
  let live = ref 0 and evicted = ref 0 in
  Hashtbl.iter
    (fun _ -> function
      | Live _ -> incr live
      | Evicted _ -> incr evicted
      | Restoring -> incr live)
    t.registry;
  let c =
    {
      live_sessions = !live;
      evicted_sessions = !evicted;
      evictions = t.evictions;
      restores = t.restores;
      requests = t.requests;
      connections = t.connections;
    }
  in
  Mutex.unlock t.reg;
  c

(* ---------- registry (all helpers below assume t.reg is HELD) ---------- *)

let touch t name =
  t.clock <- t.clock + 1;
  Hashtbl.replace t.stamps name t.clock

let live_count t =
  Hashtbl.fold
    (fun _ e n -> match e with Live _ | Restoring -> n + 1 | Evicted _ -> n)
    t.registry 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* Evict least-recently-used live sessions until the bound holds.  Only
   idle sessions (whose lock we can take without waiting) are eligible;
   a fully busy registry may transiently exceed the bound. *)
let evict_excess t =
  let continue_ = ref true in
  while live_count t > t.cfg.max_sessions && !continue_ do
    let victim =
      Hashtbl.fold
        (fun name e best ->
          match e with
          | Live s -> (
            let stamp = Option.value ~default:0 (Hashtbl.find_opt t.stamps name) in
            match best with
            | Some (bstamp, _, _) when bstamp <= stamp -> best
            | _ -> Some (stamp, name, s))
          | Evicted _ | Restoring -> best)
        t.registry None
    in
    match victim with
    | None -> continue_ := false
    | Some (_, name, s) ->
      if Mutex.try_lock s.Session.lock then begin
        t.snap_seq <- t.snap_seq + 1;
        let path =
          Filename.concat t.snapshot_dir (Printf.sprintf "snap-%d.bin" t.snap_seq)
        in
        let blob = Session.snapshot s in
        Mutex.unlock s.Session.lock;
        write_file path blob;
        Hashtbl.replace t.registry name (Evicted path);
        t.evictions <- t.evictions + 1;
        Metrics.incr m_evictions;
        Log.infof ~ctx:(sctx name) "evicted to %s" path
      end
      else
        (* the LRU candidate is busy; don't scan for the next-oldest —
           the bound is advisory for at most one request's duration *)
        continue_ := false
  done

(* ---------- session access ---------- *)

let rec with_session t name f =
  Mutex.lock t.reg;
  match Hashtbl.find_opt t.registry name with
  | None ->
    Mutex.unlock t.reg;
    invalid_arg (Printf.sprintf "no session named %S" name)
  | Some Restoring ->
    Mutex.unlock t.reg;
    Unix.sleepf 0.002;
    with_session t name f
  | Some (Evicted path) ->
    Hashtbl.replace t.registry name Restoring;
    Mutex.unlock t.reg;
    let s =
      try Session.restore ~memo:t.memo ~name (read_file path)
      with e ->
        Mutex.lock t.reg;
        Hashtbl.replace t.registry name (Evicted path);
        Mutex.unlock t.reg;
        raise e
    in
    Mutex.lock t.reg;
    Hashtbl.replace t.registry name (Live s);
    t.restores <- t.restores + 1;
    Metrics.incr m_restores;
    touch t name;
    (try Sys.remove path with Sys_error _ -> ());
    evict_excess t;
    Mutex.unlock t.reg;
    Log.infof ~ctx:(sctx name) "restored from snapshot";
    with_session t name f
  | Some (Live s) ->
    if Mutex.try_lock s.Session.lock then begin
      touch t name;
      Metrics.incr (session_requests name);
      Mutex.unlock t.reg;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.Session.lock)
        (fun () -> f s)
    end
    else begin
      Mutex.unlock t.reg;
      Unix.sleepf 0.002;
      with_session t name f
    end

(* ---------- request handling ---------- *)

let require what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or ill-typed field %S" what)

let req_str req key = require key (Json.str key req)
let req_session req = req_str req "session"

let req_jobs req =
  let jobs = Option.get (Json.int ~default:1 "jobs" req) in
  if jobs < 1 || jobs > Parallel.max_jobs then
    failwith (Printf.sprintf "jobs must lie in [1, %d]" Parallel.max_jobs);
  jobs

let analysis_fields (a : Session.analysis) =
  Protocol.float_field "yield" a.Session.yield
  @ Protocol.float_field "delay_mean" a.Session.delay_mean
  @ Protocol.float_field "delay_sigma" a.Session.delay_sigma
  @ Protocol.float_field "leak_mean" a.Session.leak_mean
  @ [
      ("leak_std", Json.Num a.Session.leak_std);
      ("leak_nominal", Json.Num a.Session.leak_nominal);
      ("leak_p99", Json.Num a.Session.leak_p99);
      ("high_vth", Json.Num (float_of_int a.Session.high_vth));
      ("total_width", Json.Num a.Session.total_width);
    ]

let session_fields (s : Session.t) =
  [
    ("session", Json.Str s.Session.name);
    ("circuit", Json.Str s.Session.setup.Setup.name);
    ("cells", Json.Num (float_of_int s.Session.cells));
    ("d0", Json.Num s.Session.setup.Setup.d0);
    ("tmax", Json.Num s.Session.tmax);
  ]

let parse_source req : Session.source =
  let circuit =
    match (Json.str "bench" req, Json.mem "netlist" req) with
    | Some name, None -> Session.Bench name
    | None, Some n ->
      Session.Text { name = req_str n "name"; text = req_str n "text" }
    | Some _, Some _ -> failwith "give either \"bench\" or \"netlist\", not both"
    | None, None -> failwith "load needs a \"bench\" name or a \"netlist\" object"
  in
  {
    Session.circuit;
    lib_file = Json.str "lib" req;
    sigma_scale = Option.get (Json.num ~default:1.0 "sigma_scale" req);
    base_size_idx = Option.get (Json.int ~default:2 "size_idx" req);
    tmax_factor = Option.get (Json.num ~default:1.25 "tmax_factor" req);
  }

let op_load t req =
  let name = req_session req in
  let source = parse_source req in
  Mutex.lock t.reg;
  let exists = Hashtbl.mem t.registry name in
  if not exists then Hashtbl.replace t.registry name Restoring;
  Mutex.unlock t.reg;
  if exists then failwith (Printf.sprintf "session %S already exists" name);
  let s =
    try Session.create ~memo:t.memo ~name source
    with e ->
      Mutex.lock t.reg;
      Hashtbl.remove t.registry name;
      Mutex.unlock t.reg;
      raise e
  in
  let a = Session.analyze s in
  Mutex.lock t.reg;
  Hashtbl.replace t.registry name (Live s);
  touch t name;
  evict_excess t;
  Mutex.unlock t.reg;
  Metrics.incr (session_requests name);
  Log.infof ~ctx:(sctx name) "loaded (%s)" s.Session.setup.Setup.name;
  Protocol.ok (session_fields s @ analysis_fields a)

let parse_edit op =
  let gate = req_str op "gate" in
  match req_str op "op" with
  | "resize" -> Session.Resize (gate, require "value" (Json.int "value" op))
  | "reassign-vth" -> Session.Reassign_vth (gate, require "value" (Json.int "value" op))
  | "set-load" -> Session.Set_load (gate, require "value" (Json.num "value" op))
  | other -> failwith (Printf.sprintf "unknown edit op %S" other)

let op_edit t req =
  let name = req_session req in
  with_session t name (fun s ->
      let ops = require "ops" (Json.list "ops" req) in
      let edits = List.map parse_edit ops in
      Session.apply_edits s edits;
      Metrics.add (session_edits name) (List.length edits);
      Protocol.ok [ ("applied", Json.Num (float_of_int (List.length edits))) ])

let op_analyze t req =
  with_session t (req_session req) (fun s ->
      Protocol.ok (session_fields s @ analysis_fields (Session.analyze s)))

let op_checkpoint t req =
  with_session t (req_session req) (fun s ->
      let name = req_str req "name" in
      Session.save s name;
      Protocol.ok
        [
          ("savepoint", Json.Str name);
          ( "savepoints",
            Json.List (List.map (fun n -> Json.Str n) (Session.savepoint_names s)) );
        ])

let op_rollback t req =
  with_session t (req_session req) (fun s ->
      let name = req_str req "name" in
      match Session.rollback s name with
      | reverted ->
        Protocol.ok
          (("reverted", Json.Num (float_of_int reverted))
          :: analysis_fields (Session.analyze s))
      | exception Not_found ->
        failwith (Printf.sprintf "no savepoint named %S" name))

let assignment_fields (d : Design.t) =
  let join a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  [
    ( "assignment",
      Json.Obj
        [ ("vth", Json.Str (join d.Design.vth_idx));
          ("size", Json.Str (join d.Design.size_idx)) ] );
  ]

let op_optimize t fd req =
  let name = req_session req in
  Metrics.incr (session_optimizes name);
  with_session t name (fun s ->
      let mode_name = Option.get (Json.str ~default:"stat" "mode" req) in
      let mode =
        match mode_name with
        | "stat" -> `Stat
        | "batch" -> `Batch
        | other -> failwith (Printf.sprintf "unknown mode %S (use stat or batch)" other)
      in
      let eta = Option.get (Json.num ~default:0.95 "eta" req) in
      let jobs = req_jobs req in
      let detail = Option.get (Json.bool ~default:false "detail" req) in
      let progress (p : Opt_core.progress) =
        Protocol.send fd
          (Protocol.progress
             [
               ("stage", Json.Str p.Opt_core.stage);
               ("moves", Json.Num (float_of_int p.Opt_core.moves_committed));
               ("yield", Json.Num p.Opt_core.cur_yield);
               ("leak_mean", Json.Num p.Opt_core.leak_mean);
             ])
      in
      let st = Session.optimize ~progress ~jobs s ~mode ~eta in
      let count name v = (name, Json.Num (float_of_int v)) in
      let common =
        [
          ("mode", Json.Str mode_name);
          ("feasible", Json.Bool st.Opt_core.feasible);
          count "vth_moves" st.Opt_core.vth_moves;
          count "size_moves" st.Opt_core.size_moves;
          count "trials" st.Opt_core.trials;
          count "passes" st.Opt_core.passes;
          count "refreshes" st.Opt_core.refreshes;
          count "bands_committed" st.Opt_core.bands_committed;
          count "bands_tried" st.Opt_core.bands_tried;
          count "rollbacks" st.Opt_core.rollbacks;
        ]
        @ Protocol.float_field "final_yield" st.Opt_core.final_yield
      in
      let extra =
        ("digest", Json.Str (Design.assignment_digest s.Session.design))
        :: (if detail then assignment_fields s.Session.design else [])
      in
      Protocol.ok
        (common @ extra
        @ [ ("analysis", Json.Obj (analysis_fields (Session.analyze s))) ]))

let op_yield t fd req =
  with_session t (req_session req) (fun s ->
      let method_ =
        let name = Option.get (Json.str ~default:"is+cv" "method" req) in
        match Yield_seq.method_of_string name with
        | Some m -> m
        | None -> failwith (Printf.sprintf "unknown method %S" name)
      in
      let halfwidth = Option.get (Json.num ~default:0.005 "halfwidth" req) in
      let max_samples = Option.get (Json.int ~default:200_000 "max_samples" req) in
      let seed = Option.get (Json.int ~default:1 "seed" req) in
      let ci = Option.get (Json.num ~default:0.95 "ci" req) in
      let jobs = req_jobs req in
      let progress ~samples ~value ~halfwidth =
        Protocol.send fd
          (Protocol.progress
             [
               ("samples", Json.Num (float_of_int samples));
               ("value", Json.Num value);
               ("halfwidth", Json.Num halfwidth);
             ])
      in
      (* the synced engine holds the circuit-delay form the estimator's
         IS shift and CV control need, bit for bit *)
      Hier.sync ~paths:false s.Session.engine;
      let e =
        Yield_seq.estimate ~ci ~jobs ~method_ ~max_samples ~progress
          ~circuit_delay:(Hier.circuit_delay s.Session.engine)
          ~target_halfwidth:halfwidth ~seed ~tmax:s.Session.tmax s.Session.design
          s.Session.setup.Setup.model
      in
      Protocol.ok
        (Protocol.float_field "value" e.Estimate.value
        @ [
            ("ci_lo", Json.Num e.Estimate.ci_lo);
            ("ci_hi", Json.Num e.Estimate.ci_hi);
            ("stderr", Json.Num e.Estimate.stderr);
            ("samples", Json.Num (float_of_int e.Estimate.samples_used));
            ("ess", Json.Num e.Estimate.ess);
            ("ssta_yield", Json.Num (Hier.yield s.Session.engine));
          ]))

let op_sessions t =
  Mutex.lock t.reg;
  let rows =
    Hashtbl.fold
      (fun name e acc ->
        let state =
          match e with
          | Live _ -> "live"
          | Evicted _ -> "evicted"
          | Restoring -> "restoring"
        in
        Json.obj [ ("session", Json.Str name); ("state", Json.Str state) ] :: acc)
      t.registry []
  in
  Mutex.unlock t.reg;
  Protocol.ok [ ("sessions", Json.List rows) ]

let rec op_close t name =
  Mutex.lock t.reg;
  match Hashtbl.find_opt t.registry name with
  | None ->
    Mutex.unlock t.reg;
    invalid_arg (Printf.sprintf "no session named %S" name)
  | Some Restoring ->
    Mutex.unlock t.reg;
    Unix.sleepf 0.002;
    op_close t name
  | Some (Evicted path) ->
    Hashtbl.remove t.registry name;
    Hashtbl.remove t.stamps name;
    Mutex.unlock t.reg;
    (try Sys.remove path with Sys_error _ -> ());
    Protocol.ok [ ("closed", Json.Str name) ]
  | Some (Live s) ->
    if Mutex.try_lock s.Session.lock then begin
      Hashtbl.remove t.registry name;
      Hashtbl.remove t.stamps name;
      Mutex.unlock t.reg;
      Mutex.unlock s.Session.lock;
      Protocol.ok [ ("closed", Json.Str name) ]
    end
    else begin
      Mutex.unlock t.reg;
      Unix.sleepf 0.002;
      op_close t name
    end

let op_stats t =
  let c = counters t in
  Protocol.ok
    [
      ("live_sessions", Json.Num (float_of_int c.live_sessions));
      ("evicted_sessions", Json.Num (float_of_int c.evicted_sessions));
      ("evictions", Json.Num (float_of_int c.evictions));
      ("restores", Json.Num (float_of_int c.restores));
      ("requests", Json.Num (float_of_int c.requests));
      ("connections", Json.Num (float_of_int c.connections));
      ("jobs", Json.Num (float_of_int (Pool.jobs t.pool)));
      ("max_sessions", Json.Num (float_of_int t.cfg.max_sessions));
      ("protocol_version", Json.Num (float_of_int Protocol.version));
    ]

(* Gauges are sampled at scrape time — everything else in the registry
   is live, so the rendered text is a consistent point-in-time view. *)
let op_metrics t =
  let c = counters t in
  Metrics.set g_live_sessions (float_of_int c.live_sessions);
  Metrics.set g_evicted_sessions (float_of_int c.evicted_sessions);
  Metrics.set g_queue_depth (float_of_int (Pool.pending t.pool));
  Protocol.ok [ ("metrics", Json.Str (Metrics.render ())) ]

let stop t =
  Mutex.lock t.reg;
  if not t.stopping then begin
    t.stopping <- true;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns
  end;
  Mutex.unlock t.reg

let dispatch t fd req =
  match Protocol.frame_type req with
  | "ping" -> (Protocol.ok [], `Continue)
  | "load" -> (op_load t req, `Continue)
  | "edit" -> (op_edit t req, `Continue)
  | "analyze" -> (op_analyze t req, `Continue)
  | "checkpoint" -> (op_checkpoint t req, `Continue)
  | "rollback" -> (op_rollback t req, `Continue)
  | "optimize" -> (op_optimize t fd req, `Continue)
  | "yield" -> (op_yield t fd req, `Continue)
  | "sessions" -> (op_sessions t, `Continue)
  | "close" -> (op_close t (req_session req), `Continue)
  | "stats" -> (op_stats t, `Continue)
  | "metrics" -> (op_metrics t, `Continue)
  | "shutdown" -> (Protocol.ok [ ("stopping", Json.Bool true) ], `Shutdown)
  | other -> (Protocol.error (Printf.sprintf "unknown request type %S" other), `Continue)

let handle_request t fd req =
  try dispatch t fd req with
  | Invalid_argument msg | Failure msg -> (Protocol.error msg, `Continue)
  | Not_found -> (Protocol.error "not found", `Continue)
  | Bench_format.Parse_error (line, msg) ->
    (Protocol.error (Printf.sprintf "netlist parse error, line %d: %s" line msg), `Continue)
  | Liberty.Parse_error (line, msg) ->
    (Protocol.error (Printf.sprintf "library parse error, line %d: %s" line msg), `Continue)
  | Sys_error msg -> (Protocol.error msg, `Continue)

let handshake fd =
  let h = Protocol.recv fd in
  if Protocol.frame_type h <> "hello" then begin
    Protocol.send fd (Protocol.error "expected a hello frame");
    false
  end
  else begin
    let v = Option.get (Json.int ~default:0 "version" h) in
    if v <> Protocol.version then begin
      Protocol.send fd
        (Protocol.error
           (Printf.sprintf "unsupported protocol version %d (server speaks %d)" v
              Protocol.version));
      false
    end
    else begin
      Protocol.send fd (Protocol.hello ());
      true
    end
  end

let handle_conn t fd =
  let finally () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.lock t.reg;
    t.conns <- List.filter (fun c -> c != fd) t.conns;
    Mutex.unlock t.reg
  in
  Fun.protect ~finally (fun () ->
      try
        if handshake fd then begin
          let quit = ref false in
          while not !quit do
            match Protocol.recv fd with
            | exception Frame.Closed -> quit := true
            | req ->
              Mutex.lock t.reg;
              t.requests <- t.requests + 1;
              Mutex.unlock t.reg;
              Metrics.incr m_requests;
              Log.debugf ~ctx "request %s" (Protocol.frame_type req);
              let resp, next = handle_request t fd req in
              Protocol.send fd resp;
              (match next with
              | `Continue -> ()
              | `Shutdown ->
                quit := true;
                Log.infof ~ctx "shutdown requested";
                stop t)
          done
        end
      with
      | Frame.Closed | Frame.Protocol_error _ -> ()
      | Unix.Unix_error _ -> ())

let serve t =
  let rec loop () =
    let stopping =
      Mutex.lock t.reg;
      let s = t.stopping in
      Mutex.unlock t.reg;
      s
    in
    if not stopping then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
          Mutex.lock t.reg;
          if t.stopping then begin
            Mutex.unlock t.reg;
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            t.conns <- fd :: t.conns;
            t.connections <- t.connections + 1;
            Mutex.unlock t.reg;
            Metrics.incr m_connections;
            Pool.submit t.pool (fun () -> handle_conn t fd)
          end
        | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Log.infof ~ctx "listening on %s (%d workers, %d live sessions max)"
    t.cfg.socket_path t.cfg.jobs t.cfg.max_sessions;
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  Pool.shutdown t.pool;
  Hashtbl.iter
    (fun _ -> function
      | Evicted path -> ( try Sys.remove path with Sys_error _ -> ())
      | Live _ | Restoring -> ())
    t.registry;
  (try Unix.rmdir t.snapshot_dir with Unix.Unix_error _ -> ());
  Log.infof ~ctx "stopped"
