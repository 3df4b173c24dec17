(** Memoized nominal cell electricals for the optimizer hot path.

    The optimizers evaluate the nominal delay of the same (kind, arity,
    size, vth) points millions of times — both when linearizing canonical
    delays and when scoring tentative moves.  This table caches
    {!Cell_lib.drive_res}, {!Cell_lib.self_load} and {!Cell_lib.input_cap}
    per (kind, arity) over the full size × threshold grid, and offers
    what-if gate delays evaluated {e without mutating the design}.  The
    table is one row per cell kind, indexed directly by arity, so a lookup
    is two array reads — no hashing.

    Every value is produced by calling the corresponding [Cell_lib]
    function once and replaying the exact summation order of
    {!Design.load}, so memoized results are bit-identical to uncached
    evaluation — a requirement of the incremental-SSTA bit-identity
    invariant ({!Sl_ssta.Incremental}). *)

type t

val create : Cell_lib.t -> t
(** An empty table bound to a library.  Entries fill lazily on first use;
    a table must only ever be used with designs over the same library. *)

(** {2 Cross-domain sharing}

    Lazy filling mutates the rows (it stores entries and grows a row to
    reach a new arity), so an unfrozen memo must not be shared across
    domains.  The sharing contract is:

    + fill the table on one domain ({!prefill} / {!prefill_kinds});
    + {!freeze} it — from then on the table never mutates: a lookup hit
      reads immutable arrays (safe from any number of domains
      concurrently, no lock), and a lookup {e miss} — an unfilled kind,
      an arity past its row's end or a hole inside a row — raises
      [Invalid_argument] ("Memo: lookup miss on frozen table ...")
      instead of inserting;
    + hand the frozen table to concurrent readers (the serve daemon keeps
      one frozen memo per library, shared by every session).

    {!covers} tells a caller whether a given design can run entirely on
    hits — the daemon falls back to a private memo when it cannot. *)

val prefill : t -> Design.t -> unit
(** Fill every (kind, arity) entry the design's gates use.
    @raise Invalid_argument on a frozen table. *)

val prefill_kinds : t -> max_arity:int -> unit
(** Fill every library cell kind over arities [min_arity .. max_arity]
    (clamped per kind) — design-independent coverage for a shared table.
    @raise Invalid_argument on a frozen table or [max_arity] < 1. *)

val freeze : t -> unit
(** Seal the table: lookups never mutate again (misses raise).  Required
    before sharing the memo across domains.  Irreversible. *)

val frozen : t -> bool

val covers : t -> Design.t -> bool
(** Whether every (kind, arity) the design uses is already filled — i.e.
    the design can be analyzed against a frozen table. *)

val drive_res :
  t -> Sl_netlist.Cell_kind.t -> arity:int -> size_idx:int -> vth_idx:int -> float
(** Nominal ([dvth = dl = 0]) drive resistance. *)

val self_load : t -> Sl_netlist.Cell_kind.t -> arity:int -> size_idx:int -> float
val input_cap : t -> Sl_netlist.Cell_kind.t -> arity:int -> size_idx:int -> float

val gate_delay : t -> Design.t -> int -> float
(** Nominal delay of gate [id] at its current assignment; bit-identical to
    [Design.gate_delay d id ~dvth:0.0 ~dl:0.0]. *)

val gate_delay_at : t -> Design.t -> int -> vth_idx:int -> size_idx:int -> float
(** Nominal delay of gate [id] {e if} it were assigned [(vth_idx,
    size_idx)], everything else unchanged — bit-identical to mutating the
    design, reading [Design.gate_delay], and restoring. *)

val delay_delta : t -> Design.t -> int -> vth_idx:int -> size_idx:int -> float
(** [gate_delay_at − gate_delay]: the nominal delay shift of a tentative
    reassignment, with no design mutation. *)

val gate_delay_sens : t -> Design.t -> int -> float * float
(** Bit-identical to {!Design.gate_delay_sens}. *)
