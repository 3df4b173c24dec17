(** Span tracing with Chrome trace-event JSON export.

    Spans are recorded into per-domain buffers (no cross-domain
    synchronization on the hot path: a buffer is created lazily through
    [Domain.DLS] and registered once under a global mutex), so the
    resident workers of {!Sl_util.Parallel} trace concurrently, each
    under its own domain's thread id, and {!export} merges every buffer,
    whether its domain still runs or has terminated, into one
    chronologically sorted stream.

    Timestamps are microseconds since {!set_sink} first enabled tracing,
    monotonized per buffer (a wall-clock step backwards clamps to the
    previous reading), so [dur] is never negative and Perfetto/
    [chrome://tracing] renders nesting from overlapping complete events
    on one thread id.

    The default sink is [Disabled]: {!span} then costs one atomic load
    and a branch before calling the thunk.  [Discard] exercises the full
    recording path but drops the event — the bench harness uses it to
    bound instrumentation overhead.  [Memory] keeps events for
    {!export}/{!write}. *)

type sink = Disabled | Discard | Memory

val set_sink : sink -> unit
val sink : unit -> sink

val enabled : unit -> bool
(** [true] unless the sink is [Disabled]. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recording a complete ("X") trace event
    covering its execution — including when [f] raises.  [attrs] become
    the event's [args]. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** A zero-duration instant ("i") event. *)

val clear : unit -> unit
(** Drop all buffered events and re-zero the clock origin. *)

val event_count : unit -> int
(** Events currently buffered across all domains. *)

val dropped_count : unit -> int
(** Events discarded because a per-domain buffer hit its cap. *)

val export : unit -> Sl_util.Json.t
(** Chrome trace-event JSON: an object with a [traceEvents] array sorted
    by start timestamp, loadable in [chrome://tracing] / Perfetto. *)

val write : string -> int
(** [write path] saves {!export} to [path]; returns the event count. *)
