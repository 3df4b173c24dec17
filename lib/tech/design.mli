(** A design point: a circuit bound to a cell library with a per-gate
    threshold and size assignment — the object both optimizers mutate and
    all analyses evaluate. *)

type t = {
  lib : Cell_lib.t;
  circuit : Sl_netlist.Circuit.t;
  vth_idx : int array;   (** per gate id; entries for PIs are ignored *)
  size_idx : int array;  (** per gate id; entries for PIs are ignored *)
  extra_load : float array;
      (** per-gate additional output capacitance, fF (default 0) — the
          what-if load knob of interactive sessions ([set-load] edits);
          added to {!external_load} after the structural terms *)
}

val create : ?vth_idx:int -> ?size_idx:int -> Cell_lib.t -> Sl_netlist.Circuit.t -> t
(** All gates start at the given threshold index (default 0 = low-Vth,
    fast/leaky) and size index (default 0 = unit size).
    @raise Invalid_argument if either index is out of the library range. *)

val copy : t -> t
(** Deep copy of the assignment arrays (library and circuit are shared). *)

val set_vth : t -> int -> int -> unit
(** [set_vth d gate_id vth_idx]. @raise Invalid_argument on a PI node or
    out-of-range index. *)

val set_size : t -> int -> int -> unit

val set_extra_load : t -> int -> float -> unit
(** [set_extra_load d gate_id cap_ff] overrides the gate's additional
    output load (an interactive what-if edit: extra wire, a fanout stub).
    @raise Invalid_argument on a PI node, a negative or non-finite value. *)

val arity : t -> int -> int
(** Fanin count of gate [id]. *)

val load : t -> int -> float
(** Output load of gate [id], fF: fanout input pins + per-edge wire
    capacitance + primary-output load when applicable + its own parasitic
    self-load. *)

val external_load : t -> int -> float
(** The part of {!load} that does not depend on gate [id]'s own assignment:
    fanout input pins + wire + primary-output load.  [load d id] is exactly
    [external_load d id +. self_load], which is what lets {!Memo} evaluate
    what-if delays without mutating the design. *)

val gate_delay : t -> int -> dvth:float -> dl:float -> float
(** Delay of gate [id] under the given local variations, ps.  PIs have
    zero delay. *)

val gate_leak : t -> int -> dvth:float -> dl:float -> float
(** Leakage of gate [id] under local variations, nA.  PIs leak nothing. *)

val gate_delay_sens : t -> int -> float * float
(** [(∂d/∂ΔVth, ∂d/∂ΔL)] of gate [id] evaluated at the nominal point:
    the first-order coefficients of the gate's canonical delay form.
    Both are positive (higher threshold / longer channel → slower).
    Zero for PIs. *)

val delay_sens : t -> int -> d0:float -> float * float
(** {!gate_delay_sens} of the cell [id] given its nominal delay [d0], for
    a caller that has derived [d0] already. *)

val total_leak_nominal : t -> float
(** Σ nominal gate leakage, nA — the quantity a variation-blind flow
    reports. *)

val count_high_vth : t -> int
(** Number of cells not at the lowest threshold. *)

val total_width : t -> float
(** Σ size multipliers over cells — the area proxy used in reports. *)

val assignment_digest : t -> string
(** Compact "v<counts>/s<counts>" string summarising the assignment, used
    in logs and experiment records. *)
