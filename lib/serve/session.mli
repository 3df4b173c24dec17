(** One named design held open by the serve daemon.

    A session is a {!Statleak.Setup} problem instance plus the live
    analysis state the protocol operations touch: the mutable
    {!Sl_tech.Design}, one {!Sl_ssta.Hier} timing engine, a
    {!Sl_leakage.Leak_ssta} accumulator, and a map of named savepoints
    (assignment snapshots the client can roll back to).  Edits, analyses,
    rollbacks and optimizes all run on that one engine.

    Everything here is deterministic and replayable: a session is created
    from a {!source} value — the circuit text or benchmark name plus the
    scalar knobs — and {!snapshot}/{!restore} round-trips through exactly
    that value plus the assignment arrays, so a session restored from an
    eviction snapshot is {e bit-identical} to the one that was evicted
    (same parse, same from-scratch analysis).

    Sessions are not internally synchronized; the server serializes all
    access through {!lock} (one writer at a time per session). *)

type circuit_src =
  | Bench of string  (** a {!Sl_netlist.Benchmarks} suite name *)
  | Text of { name : string; text : string }
      (** a ".bench" netlist held verbatim — what file loads become, so
          eviction snapshots stay valid when the file changes *)

type source = {
  circuit : circuit_src;
  lib_file : string option;  (** [None] = built-in 100nm library *)
  sigma_scale : float;
  base_size_idx : int;
  tmax_factor : float;
}

type t = {
  name : string;  (** the session (registry) name, not the circuit name *)
  source : source;
  setup : Statleak.Setup.t;
  design : Sl_tech.Design.t;
  engine : Sl_ssta.Hier.t;
      (** built at load on one domain: register cones when the netlist
          decomposes at its registers, one cone otherwise *)
  leak : Sl_leakage.Leak_ssta.t;
  memo : Sl_tech.Memo.t;
      (** frozen: the daemon's shared table, or the session's own,
          prefilled for the design *)
  tmax : float;  (** [tmax_factor · d0], fixed at load *)
  cells : int;  (** logic cells in the circuit, counted at load *)
  gate_ids : (string, int) Hashtbl.t;
      (** net name → gate id, built at load: an edit resolves its gates
          without a walk over the circuit.  Read-only. *)
  mutable savepoints : (string * saved) list;
  mutable edits : int;  (** applied edit operations, for stats *)
  lock : Mutex.t;
}

and saved

val create : ?memo:Sl_tech.Memo.t -> name:string -> source -> t
(** Resolve the source, build the setup and run the initial full
    analysis.  [memo] is the daemon's shared frozen table; it is used
    only when the session runs on the built-in library and the table
    {!Sl_tech.Memo.covers} the design — otherwise the session gets a
    private memo.
    @raise Invalid_argument on an unknown benchmark name or bad knobs.
    @raise Sl_netlist.Bench_format.Parse_error on malformed netlist text.
    @raise Sl_tech.Liberty.Parse_error on a malformed library file. *)

(** {2 Operations} (caller holds {!lock}) *)

type edit =
  | Resize of string * int        (** gate name, new size index *)
  | Reassign_vth of string * int  (** gate name, new threshold index *)
  | Set_load of string * float    (** gate name, extra load in fF *)

val apply_edits : t -> edit list -> unit
(** Apply the edits to the design in order and mark their gates dirty in
    the engine (cone repair deferred to the next {!analyze}) — all of
    them, or none: on a bad edit the design, the engine and the edit
    count are left as they were.
    @raise Invalid_argument on an unknown gate, a PI, or a bad value. *)

type analysis = {
  yield : float;
  delay_mean : float;
  delay_sigma : float;
  leak_mean : float;
  leak_std : float;
  leak_nominal : float;
  leak_p99 : float;
  high_vth : int;
  total_width : float;
}

val analyze : t -> analysis
(** Sync the engine's arrivals and circuit delay, refresh the leakage
    moments and read the current numbers.  The cost follows the edits:
    the engine re-times the dirty cones forward only — no reply reads
    the worst-path arrays, so their backward repair waits for the full
    sync that {!optimize} starts with — and {!Sl_leakage.Leak_ssta.refresh}
    re-derives only the edited gates' terms before it re-folds the sums.
    Every reported value is a pure function of the circuit source and the
    current assignment — two sessions in the same state analyze
    bit-identically, whatever edit or rollback history brought them
    there. *)

val save : t -> string -> unit
(** Record the current assignment (threshold, size and extra-load arrays)
    under a savepoint name, replacing any previous savepoint of that
    name. *)

val rollback : t -> string -> int
(** Restore the named savepoint's assignment; returns the number of gates
    whose assignment changed (each is pushed through the incremental
    engine, so the next {!analyze} repairs only the touched cones).
    @raise Not_found on an unknown savepoint. *)

val savepoint_names : t -> string list

val optimize :
  ?progress:(Sl_opt.Opt_core.progress -> unit) ->
  ?jobs:int ->
  t -> mode:[ `Stat | `Batch ] -> eta:float -> Sl_opt.Opt_core.stats
(** Run the requested optimizer on the session design with the session's
    [tmax] and the optimizer's default configuration — exactly what the
    one-shot [statleak optimize --mode stat|batch] CLI runs, so the move
    trajectory, the stats and the final assignment are identical,
    whatever edits and rollbacks came before.  It runs on the session's
    own engine, leakage model and memo ({!Sl_opt.Opt_core.run}'s
    [engine]): nothing is built or rebuilt.  [jobs] (default 1) sets
    only the ranking scan's domains; the engine keeps the cones it was
    loaded with.  If [progress] raises, the moves made so far stay in
    the design and the engine alike, so the next {!analyze} reads the
    design as it is. *)

(** {2 Eviction snapshots} *)

val snapshot : t -> string
(** Serialize the session (source + assignment + savepoints) to a byte
    string.  Must not be called mid-operation. *)

val restore : ?memo:Sl_tech.Memo.t -> name:string -> string -> t
(** Rebuild a session from {!snapshot} output.  Deterministic: the
    restored session analyzes bit-identically to the evicted one.
    @raise Failure on a corrupt snapshot. *)
