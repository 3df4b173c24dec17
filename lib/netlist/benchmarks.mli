(** The benchmark suite used throughout the evaluation.

    Names, sizes and the ISCAS-85 circuit each entry stands in for are
    listed in DESIGN.md §3 / EXPERIMENTS.md.  All circuits are generated
    deterministically (or parsed from embedded text, for c17), so every
    run of the suite sees identical netlists. *)

val c17 : unit -> Circuit.t
(** The genuine ISCAS-85 c17 netlist (6 NAND gates), parsed from its
    embedded ".bench" text. *)

val by_name : string -> Circuit.t option
(** Look up any suite circuit by name (e.g. "mult16").  Also resolves the
    scaling workloads in {!large_names}. *)

val names : string list
(** All suite circuit names, smallest first.  Excludes the scaling
    workloads — those are only instantiated on explicit request. *)

val large_names : string list
(** Scaling-workload names ("rand30k", "rand100k", "spipe30k" — 30k–100k
    gates).  Resolvable through {!by_name} but deliberately absent from
    {!names}: the standard suite selectors never instantiate them. *)

val small : unit -> (string * Circuit.t) list
(** c17 + the sub-200-cell circuits; used by fast unit tests. *)

val full : unit -> (string * Circuit.t) list
(** The whole suite (≈6 to ≈3500 cells), smallest first; used by the
    headline tables. *)
