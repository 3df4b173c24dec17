(** The statleak optimization daemon.

    Listens on a Unix-domain socket, speaks the {!Protocol} frame
    protocol, and holds any number of named {!Session}s.  Connections are
    multiplexed over a {!Sl_util.Parallel.Pool} of worker domains — each
    accepted connection occupies one worker for its lifetime, so [jobs]
    bounds the number of simultaneously served clients.  Sessions are
    independent: requests on different sessions run concurrently (on
    their connections' workers), requests on the same session serialize
    on the session lock — one writer per session.

    All sessions on the built-in library share one frozen read-only
    {!Sl_tech.Memo}.  When the number of live sessions exceeds
    [max_sessions], the least-recently-used idle session is evicted to a
    deterministic disk snapshot and transparently restored — bit-identical
    — on its next touch. *)

type config = {
  socket_path : string;
  jobs : int;
      (** worker domains = max simultaneous connections, 1 to
          {!Sl_util.Parallel.max_jobs} *)
  max_sessions : int;  (** live (in-memory) session bound; ≥ 1 *)
  snapshot_dir : string option;
      (** eviction snapshot directory; default [socket_path ^ ".sessions"].
          Created at startup, emptied and removed at shutdown. *)
  log_level : Sl_obs.Log.level;
      (** threshold for the daemon's leveled stderr log ({!Sl_obs.Log});
          lifecycle events (load/evict/restore/listen/stop) log at Info,
          per-request lines at Debug *)
}

val default_config : socket_path:string -> config
(** 4 workers, 8 live sessions, default snapshot dir, log level [Warn]
    (lifecycle lines suppressed). *)

type t

val create : config -> t
(** Bind and listen on the socket (an existing socket file is replaced),
    create the snapshot directory, build and freeze the shared library
    memo.  @raise Unix.Unix_error when the socket cannot be bound.
    @raise Invalid_argument on [jobs] or [max_sessions] out of range. *)

val serve : t -> unit
(** Accept-and-dispatch loop; returns after a [shutdown] request (or
    {!stop}) once every connection is drained and the socket, snapshot
    files and worker pool are cleaned up. *)

val stop : t -> unit
(** Ask a running {!serve} to shut down (thread-safe; what the protocol
    [shutdown] request calls). *)

(** {2 Introspection for tests} *)

type counters = {
  live_sessions : int;
  evicted_sessions : int;
  evictions : int;  (** lifetime eviction count *)
  restores : int;   (** lifetime restore count *)
  requests : int;
  connections : int;
}

val counters : t -> counters
