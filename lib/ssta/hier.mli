(** The incremental SSTA engine: one {!Incremental} per timing cone.

    With [~partition:true], a register-cut design
    ({!Sl_netlist.Bench_format} with [~sequential:`Cut]) decomposes into
    independent combinational cones
    ({!Sl_netlist.Circuit.partition_at_registers}).  The engine then owns
    one sequential {!Incremental} instance per cone over a restricted
    view of the variation model ({!Sl_variation.Model.restrict}), plus a
    canonical-form {e boundary macromodel} per cut net: the cone's
    arrival at each D-side output, expressed over the {e global}
    principal components — so correlation between cones flows through
    the shared PCs and is preserved by construction.

    {2 One cone}

    Every other design is one cone: [partition] is off, the netlist does
    not decompose (a purely combinational input is one connected
    component; a component with cells but no timing sink also declines
    the cut), or a caller-supplied frozen memo cannot serve the cones.
    The one cone is the design itself, not a mirrored copy, timed over
    the unrestricted model by one {!Incremental} that runs
    level-parallel on [jobs] domains.  Its path arrays and circuit delay
    are the engine's, so nothing is mirrored, scattered or stitched, and
    a sync costs about what a bare {!Incremental.sync} does.

    {2 Bit-identity}

    Cones share no gates, local ids are a monotone remap of global ids,
    and the circuit delay is stitched by replaying the whole-design fold
    over the global output order.  Every per-cone recomputation therefore
    produces exactly the words the one cone would
    ([Int64.bits_of_float] equality), for every [jobs] value — cones are
    just scheduled on domains. *)

type t

val create :
  ?memo:Sl_tech.Memo.t -> ?jobs:int -> ?partition:bool ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> tmax:float -> t
(** Fully analyze the design: register cones when [partition] (default
    false) is set and the netlist decomposes with a usable memo ([jobs]
    cones concurrently), one cone otherwise.  The design is referenced,
    not copied; register cones' sub-designs mirror its assignment and are
    kept in step by {!update_gate}/{!rebuild}.  For register cones an
    unfrozen (or absent) [memo] is prefilled for the design and frozen —
    required before cone engines can run on worker domains; the frozen
    table serves lookups bit-identically to lazy filling.  The one cone
    uses [memo] as given, or a fresh one if it is frozen and cannot
    serve the design.
    @raise Invalid_argument if [jobs] < 1. *)

val design : t -> Sl_tech.Design.t
val num_partitions : t -> int
(** Cones: 1 unless the design is timed as register cones. *)

val update_gate : t -> int -> unit
(** Call after mutating gate [gid]'s threshold, size or extra load in
    the design: mirrors the assignment slot into the owning register
    cone's sub-design and defers re-timing to {!sync}, exactly like
    {!Incremental.update_gate}. *)

val sync : ?paths:bool -> t -> unit
(** Re-time only the cones containing dirty gates — a lone one on the
    calling domain, several concurrently on the {!Sl_util.Parallel} pool
    (one writer per cone) — then stitch the boundary arrivals into the
    circuit delay and yield.  [~paths:false] defers each cone's
    backward/path repair just like {!Incremental.sync}; the deferred
    dirt is consumed by the next full sync. *)

val rebuild : t -> unit
(** Re-mirror the whole assignment and rebuild every cone from scratch
    (cones in parallel).  @raise Invalid_argument under a checkpoint. *)

val yield : t -> float
val circuit_delay : t -> Canonical.t
val arrival : t -> int -> Canonical.t
(** Arrival of global gate [gid], read from its owning cone. *)

val required : t -> int -> Canonical.t
val path_mu : t -> float array
val path_sigma : t -> float array
(** Live {e global} per-gate worst-path arrays, updated in place at every
    full sync (scattered from register cones) — callers may hold on to
    them but must not write. *)

val boundary : t -> (string * Canonical.t) array
(** The boundary macromodels: for every global primary output (each cut
    D-net and true PO), its driving net name and canonical arrival form
    over the global PCs.  Pair with
    {!Sl_netlist.Bench_format.parse_string_cut} register records to map
    a D-side arrival to the next stage's Q launch. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Eager per-cone checkpoints.  Same contract as
    {!Incremental.checkpoint}: take on forward-synced state, one active
    at a time. *)

val commit : t -> checkpoint -> unit

val rollback : t -> checkpoint -> unit
(** Restore every cone's timing view, then the circuit delay and yield
    from the restored arrivals.  The caller must restore the global
    design assignment first; touched gates are re-mirrored into their
    sub-designs here. *)

val audit : t -> bool
(** Every cone audits against a from-scratch analysis, and the circuit
    delay/yield equal re-folding the boundary arrivals. *)

val stats : t -> Incremental.stats
(** Aggregate over cones (sums; [max_cone]/[max_level_width] are maxima). *)

val analyze :
  ?memo:Sl_tech.Memo.t -> ?jobs:int ->
  Sl_tech.Design.t -> Sl_variation.Model.t -> Ssta.result option
(** One-shot partitioned analysis: cones analyzed concurrently, results
    scattered into global arrays, circuit delay stitched over the global
    output order — bit-identical to {!Ssta.analyze} on the flat design.
    [None] when there are no register cones to time (see "One cone";
    the memo rule is {!create}'s): the caller analyzes the design whole
    with {!Ssta.analyze}. *)
