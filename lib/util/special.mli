(** Special functions for Gaussian statistics.

    Everything SSTA needs: the error function, the standard normal pdf,
    CDF [phi]/[Phi], its inverse, and the first two moments of the maximum
    of two jointly Gaussian variables (Clark's formulas). *)

val erf : float -> float
(** Error function, computed as [1 - erfc x]. *)

val erfc : float -> float
(** Complementary error function (a Chebyshev fit), accurate in both
    tails: on [-6, 6] within 1.2e-14 (relative) of libm's [Float.erfc]. *)

val normal_pdf : float -> float
(** φ(x) = exp(-x²/2)/√(2π). *)

val normal_cdf : float -> float
(** Φ(x) = P(Z ≤ x) for Z ~ N(0,1). *)

val normal_icdf : float -> float
(** Φ⁻¹(p) for p ∈ (0,1).  Acklam's rational approximation polished with a
    Halley step; |absolute error| < 1e-12 over (1e-300, 1-1e-16).
    @raise Invalid_argument if p ∉ (0,1). *)

val log_normal_cdf_tail : float -> float
(** ln Φ(-x) for large positive x, computed without underflow (asymptotic
    Mills-ratio expansion); used for extreme-yield reporting. *)

val clark_max_moments :
  mu1:float -> sigma1:float -> mu2:float -> sigma2:float -> rho:float ->
  float * float * float
(** [clark_max_moments ~mu1 ~sigma1 ~mu2 ~sigma2 ~rho] returns
    [(mean, variance, tightness)] of [max(X1, X2)] for jointly Gaussian
    X1, X2 with correlation [rho].  [tightness] is P(X1 ≥ X2) — the weight
    given to X1's sensitivities when re-linearizing the max. *)

val clark_max_into : float array -> unit
(** Allocation-free form of {!clark_max_moments}: reads
    [(mu1, sigma1, mu2, sigma2, rho)] from slots 0–4 of the frame and
    writes [(mean, variance, tightness)] to slots 5–7, the same words.
    @raise Invalid_argument if the frame is shorter than 8. *)

(** {2 Four lanes}

    erfc's recurrence is one serial chain, so a lone call waits on its
    latency.  These forms run four independent arguments through the
    scalar kernel's operations in the scalar order, interleaved, and
    return each lane's scalar word: lane [l] of {!erfc4} is [erfc] of
    its argument, bit for bit, whatever the other lanes hold. *)

val erfc4 : float array -> unit
(** [erfc4 f]: [f.(l)] ← [erfc f.(l)] for [l] < 4; [f.(4)] .. [f.(7)]
    are work space.  @raise Invalid_argument if [f] is shorter than 8. *)

val normal_cdf4 : float array -> unit
(** [normal_cdf4 f]: [f.(l)] ← [normal_cdf f.(l)] for [l] < 4; [f.(4)]
    .. [f.(7)] are work space.
    @raise Invalid_argument if [f] is shorter than 8. *)

val clark_max4_into : float array -> unit
(** Four {!clark_max_into} frames in one call: lane [l]'s operands at
    [f.(16 l)] .. [f.(16 l + 4)], its results at [f.(16 l + 5)] ..
    [f.(16 l + 7)] — the words {!clark_max_into} writes for that lane
    alone — and [f.(16 l + 8)] .. [f.(16 l + 15)] work space.
    @raise Invalid_argument if [f] is shorter than 64. *)
