(** Deterministic static timing analysis.

    Pin-independent gate delays over the topologically-ordered circuit:
    one forward sweep for arrival times, one backward sweep for required
    times and slacks.  Variation-aware evaluation (used by Monte Carlo)
    takes per-gate ΔVth / ΔL arrays. *)

type result = {
  delay : float array;    (** per-gate delay used in this analysis, ps *)
  arrival : float array;  (** per-gate arrival time, ps *)
  required : float array; (** per-gate required time against [tmax], ps *)
  slack : float array;    (** required − arrival, ps *)
  dmax : float;           (** circuit delay: max arrival over primary outputs *)
}

val loads : Sl_tech.Design.t -> float array
(** Cached per-gate output loads (depend only on the sizing). *)

val delays :
  ?dvth:float array -> ?dl:float array -> Sl_tech.Design.t -> float array
(** Per-gate delays; omitted variation arrays mean the nominal die. *)

val arrivals :
  ?jobs:int -> ?par_threshold:int ->
  Sl_netlist.Circuit.t -> float array -> float array
(** Forward sweep given per-gate delays.  With [?jobs > 1] levels wider
    than [?par_threshold] (default 4096 — scalar gates are cheap) are
    chunked across domains; bit-identical to the sequential sweep for
    every [jobs] value, as in {!Sl_ssta.Ssta.analyze}.  Note: Monte-Carlo
    parallelizes across dies, not within a sweep — leave [jobs] at 1
    inside per-die evaluators. *)

val gate_arrival : float array -> float array -> Sl_netlist.Circuit.gate -> float
(** [gate_arrival arrival delay g]: the forward fold of one non-PI gate,
    shared by every full and incremental deterministic sweep. *)

val dmax_of_arrivals : Sl_netlist.Circuit.t -> float array -> float
(** Max arrival over the primary outputs (at least 0). *)

val required_times :
  Sl_netlist.Circuit.t -> float array -> tmax:float -> float array
(** Backward sweep given per-gate delays; unobservable gates get [tmax]. *)

val analyze :
  ?dvth:float array -> ?dl:float array -> ?tmax:float -> ?jobs:int ->
  Sl_tech.Design.t -> result
(** Full analysis.  [tmax] defaults to the computed [dmax] (zero-slack
    normalization). *)

val dmax :
  ?dvth:float array -> ?dl:float array -> ?jobs:int -> Sl_tech.Design.t -> float
(** Circuit delay only. *)

val critical_path : Sl_netlist.Circuit.t -> result -> int array
(** Gate ids of one critical path, input to output, extracted by walking
    maximal arrivals backwards from the worst primary output. *)

val worst_slack : result -> float

(** Re-usable evaluator for Monte-Carlo: structure, loads and nominal cell
    parameters are captured once, so per-sample evaluation is a single
    array sweep with no library lookups.  A [t] is per-domain scratch: it
    owns one die's delay and arrival arrays, which every {!dmax}
    overwrites, so a die allocates nothing that grows with the circuit —
    and two domains must not share one [t]. *)
module Fast : sig
  type t

  val create : Sl_tech.Design.t -> t

  val dmax : t -> dvth:float array -> dl:float array -> float
  (** Circuit delay of one die: its delays, then {!gate_arrival} per
      gate and {!dmax_of_arrivals}, into [t]'s scratch. *)
end
