(** First-order canonical timing form (Visweswariah/Chang style):

    {v X = mean + Σ_k coeffs_k · Z_k + rnd · R v}

    where the Z_k are the variation model's shared principal components
    and R is a fresh independent unit normal.  Sums are exact; [max] uses
    Clark's moment matching and re-linearizes onto the same basis with
    tightness-weighted coefficients. *)

type t = {
  mean : float;
  coeffs : float array;  (** sensitivities to the shared PCs *)
  rnd : float;           (** σ of the independent remainder (≥ 0) *)
}

val make : mean:float -> coeffs:float array -> rnd:float -> t
val constant : num_pcs:int -> float -> t

val num_pcs : t -> int
val variance : t -> float
val sigma : t -> float

val add : t -> t -> t
(** Exact sum; independent remainders combine root-sum-square.
    @raise Invalid_argument on basis-size mismatch. *)

val covariance : t -> t -> float
(** Covariance through the shared PCs only (independent remainders never
    co-vary across distinct forms). *)

val correlation : t -> t -> float

val max2 : t -> t -> t
(** Clark max re-linearized: coefficients are the tightness-weighted blend
    and [rnd] absorbs the variance Clark predicts beyond the blended
    coefficients. *)

val max_list : t list -> t
(** Left fold of {!max2}. @raise Invalid_argument on empty list. *)

val tightness : t -> t -> float
(** P(first ≥ second). *)

val cdf : t -> float -> float
(** P(X ≤ x) under the Gaussian approximation. *)

val quantile : t -> float -> float
(** Inverse of {!cdf}. *)

val eval : t -> z:float array -> r:float -> float
(** Value of the form at a concrete PC vector and remainder draw — used to
    compare SSTA against Monte Carlo on identical dies. *)

val pp : Format.formatter -> t -> unit

(** {2 Rows}

    A canonical form also lives flat in a float array as a {e row} of
    [row_width num_pcs] words: [mean; rnd; c_0 … c_{num_pcs-1}].  The
    row kernels below and the record operations above run one
    implementation of the sum, the variance and the Clark max, written
    over raw (mean, rnd, coefficient row) operands, so a form computed
    through either is the same IEEE word.  The row kernels allocate
    nothing; {!Arena} stores its slots as rows. *)

val row_width : int -> int
(** [num_pcs + 2]. *)

val of_row : np:int -> float array -> int -> t
val to_row : t -> float array -> int -> unit

type frame
(** Work space of one Clark step ({!Sl_util.Special.clark_max_into}).  A
    row kernel call mutates it: one per domain. *)

val frame : unit -> frame

val add_rows :
  np:int -> float array -> int -> float array -> int -> float array -> int -> unit
(** [add_rows ~np a ao b bo d r]: the row of [d] at [r] ← [add] of the
    rows at [a.(ao)] and [b.(bo)].  [d]'s row may be either operand. *)

val max2_rows :
  frame -> np:int -> float array -> int -> float array -> int -> float array -> int ->
  unit
(** [max2_rows f ~np a ao b bo d r]: the row of [d] at [r] ← [max2] of
    the rows at [a.(ao)] and [b.(bo)].  [d]'s row may be the first
    operand. *)

val sigma_row : np:int -> float array -> int -> float
(** [sigma] of the row at the offset. *)

val add_moments_rows :
  np:int -> float array -> int -> float array -> int -> mu:float array ->
  sigma:float array -> int -> unit
(** [add_moments_rows ~np a ao b bo ~mu ~sigma i]: [mu.(i)] and
    [sigma.(i)] ← the mean and [sigma] of [add] of the rows at [a.(ao)]
    and [b.(bo)], in one pass and the same words as {!add_rows} followed
    by {!sigma_row}. *)

(** {2 Four lanes}

    A lone Clark max waits on the latency of its serial sums and of
    erfc's recurrence.  The lane forms run four independent operations
    with their chains interleaved, each lane through the scalar kernel's
    operations in the scalar order, so each lane writes the words its
    scalar call would, whatever the other lanes hold. *)

type frame4
(** Work space of one four-lane Clark step
    ({!Sl_util.Special.clark_max4_into}): one per domain. *)

val frame4 : unit -> frame4

val max2_rows4 :
  frame4 -> np:int -> float array -> int array -> float array -> int array ->
  float array -> int array -> unit
(** [max2_rows4 f ~np a ao b bo d dr]: for each lane [l] < 4, the row of
    [d] at [dr.(l)] ← [max2_rows] of the rows at [a.(ao.(l))] and
    [b.(bo.(l))].  A lane's destination may be its own first operand; no
    lane may write a row another lane reads. *)

val add_moments_rows4 :
  np:int -> float array -> float array -> mu:float array -> sigma:float array ->
  int -> int -> int -> int -> unit
(** [add_moments_rows4 ~np a b ~mu ~sigma i0 i1 i2 i3]: for each lane,
    [add_moments_rows] of the rows at index [il] (offset [il · row_width
    np]) of [a] and [b] into [mu.(il)] and [sigma.(il)]. *)
