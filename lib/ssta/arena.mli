(** Flat storage for canonical timing state.

    An arena holds [n] canonical forms as {!Canonical} rows — [mean; rnd;
    c_0 … c_{num_pcs-1}] — at a fixed stride in one unboxed float array,
    instead of [n] heap records.  Timing passes walk contiguous memory
    and allocate nothing per gate, and — because every slot is disjoint —
    the gates of one topological level can be filled by concurrent
    domains without synchronization.

    The slot operations run {!Canonical}'s row kernels, the same code as
    the record operations, so a value computed through an arena is the
    IEEE word a [Canonical.t] pipeline produces. *)

type t = private {
  n : int;
  num_pcs : int;
  data : float array;  (** [n * Canonical.row_width num_pcs] *)
}

val create : n:int -> num_pcs:int -> t
(** All slots start as the canonical constant 0. *)

val row : t -> int -> int
(** Offset of slot [i]'s row in [data]. *)

val width : t -> int
(** Words per slot: [Canonical.row_width num_pcs]. *)

val get : t -> int -> Canonical.t
(** Materialize slot [i] as a fresh canonical record. *)

val set : t -> int -> Canonical.t -> unit

val zero : t -> int -> unit
(** Slot [i] ← the canonical constant 0. *)

val blit : t -> int -> t -> int -> unit
(** [blit src i dst j]: slot [j] of [dst] ← slot [i] of [src]. *)

val add : t -> int -> t -> int -> dst:t -> int -> unit
(** [add a i b j ~dst k]: slot [k] ← [Canonical.add (a.i) (b.j)].  The
    destination may be either operand. *)

val max2 : Canonical.frame -> t -> int -> t -> int -> dst:t -> int -> unit
(** [max2 f a i b j ~dst k]: slot [k] ← [Canonical.max2 (a.i) (b.j)], with
    [f] the calling domain's Clark frame.  The destination may be the
    first operand. *)

val sigma : t -> int -> float
(** [Canonical.sigma] of slot [i]. *)

val bits_equal : float -> float -> bool
(** IEEE-bit equality: [nan] equals a [nan] with the same payload, and
    [0.0] differs from [-0.0].  "Unchanged" in an incremental engine means
    exactly "a from-scratch analysis would produce this word". *)

val equal : t -> int -> t -> int -> bool
(** [equal a i b j]: every word of the two slots is {!bits_equal}. *)
