(** Multicore task execution on OCaml 5 domains.

    One kind of worker runs every parallel call: a {!Pool} worker, a
    domain that lives as long as its pool.  {!run} hands its tasks to one
    process-wide pool, which starts empty, grows on demand and keeps at
    most one worker per core beyond the caller's; the caller drains the
    same shared counter of task indices as the workers.  Each domain
    that takes part builds its own private state once with [init] —
    scratch buffers, evaluators — so tasks mutate only domain-local data
    plus whatever disjoint output slots the task index designates.

    Determinism contract: which domain executes a task is scheduling
    noise.  If task [i]'s effect depends only on [i] (never on the
    worker state's history), results are bit-identical for every [jobs]
    value.  The Monte-Carlo engine gets this by giving every chunk its
    own counter-derived RNG stream ({!Rng.stream}). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default worker count
    everywhere a [?jobs] argument is omitted. *)

val max_jobs : int
(** 64: the most domains a user or client may ask for.  OCaml 5.1 runs
    at most 128 domains in a process, and a serve daemon's connection
    workers and the workers behind {!run} add up; the CLI's [--jobs] and
    the serve daemon check against this bound. *)

exception Worker of exn
(** Wraps the first exception raised by a task of a parallel {!run};
    every worker that took part has finished before it propagates. *)

val run :
  jobs:int -> tasks:int -> init:(unit -> 'state) -> ('state -> int -> unit) ->
  unit
(** [run ~jobs ~tasks ~init f] executes [f state i] for every [i] in
    [0, tasks), at most [min jobs tasks] tasks concurrently.  When
    [min jobs tasks = 1] it runs inline on the calling domain.  Otherwise
    the caller takes part, and up to [min jobs tasks - 1] resident
    workers of the process-wide pool join it: at most
    [max 1 (default_jobs () - 1)], a bound worked out from the platform,
    so a run that asks for more gets fewer domains and the same words.
    The caller waits only for workers that joined before every task was
    claimed, so a nested run, or one that finds every worker busy,
    finishes on the caller alone.
    @raise Invalid_argument if [jobs] < 1 or [tasks] < 0.
    @raise Worker if a task of a run that is not inline raises. *)

val domains : jobs:int -> int
(** The most domains a {!run} asking for [jobs] engages:
    [min jobs (1 + max 1 (default_jobs () - 1))], the caller and the
    pool's worker cap — what a report of the domains that take part
    shows. *)

val for_ : jobs:int -> tasks:int -> (int -> unit) -> unit
(** Stateless [run]. *)

val run_chunks :
  jobs:int -> threshold:int -> n:int -> init:(unit -> 'state) ->
  ('state -> int -> int -> unit) -> unit
(** [run_chunks ~jobs ~threshold ~n ~init f] covers the index range
    [0, n) with half-open chunks, calling [f state lo hi] for each; when
    [jobs = 1] or [n < threshold] the whole range runs inline as one
    chunk on the calling domain.  Chunk boundaries depend only on [n] and
    [jobs], so an [f] whose effect at index [i] depends only on [i]
    writes every slot exactly once regardless of scheduling — the
    level-parallel SSTA passes lean on this for bit-identity.
    @raise Invalid_argument if [n] < 0, or [jobs] < 1 on the parallel path.
    @raise Worker if any chunk raises. *)

(** A pool of resident worker domains draining a shared work queue.

    {!run}'s process-wide pool is one; a server makes its own, so it can
    multiplex many independent requests over a fixed set of domains.
    This module is the one place a domain is spawned.  Tasks are
    arbitrary thunks; exceptions a task raises are caught and passed to
    the [on_error] handler (default: ignored) rather than killing the
    worker.

    Tasks must synchronize among themselves (the serve layer gives every
    session its own mutex); the pool guarantees only that each submitted
    task runs exactly once, on some worker, in FIFO submission order per
    worker pick-up. *)
module Pool : sig
  type t

  val create : ?on_error:(exn -> unit) -> jobs:int -> unit -> t
  (** Spawn [jobs] worker domains (≥ 1).  Should the runtime refuse one,
      the workers already started are shut down and [Failure] is raised.
      @raise Invalid_argument if [jobs] < 1. *)

  val jobs : t -> int

  val pending : t -> int
  (** Tasks currently queued and not yet picked up by a worker — the
      queue-depth signal exported as a serve gauge. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task; returns immediately.
      @raise Invalid_argument after {!shutdown}. *)

  val shutdown : t -> unit
  (** Finish queued tasks, then join all workers.  Idempotent. *)
end
