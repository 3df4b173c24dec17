(** Reader and writer for the ISCAS ".bench" netlist format.

    The format is line-oriented:
    {v
      # comment
      INPUT(G1)
      OUTPUT(G22)
      G10 = NAND(G1, G3)
      G22 = NOT(G10)
    v}
    The optimizer is purely combinational, so sequential netlists
    (ISCAS-89 style, with [q = DFF(d)] elements) are handled by the
    standard register-cut transformation when [~sequential:`Cut] is
    passed: each flip-flop output becomes a pseudo primary input and each
    flip-flop data net a pseudo primary output, leaving the combinational
    core between register boundaries — exactly what timing and leakage
    optimization operate on.  The default (`Reject) reports DFFs as parse
    errors. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string :
  ?sequential:[ `Reject | `Cut ] -> name:string -> string -> Circuit.t
(** @raise Parse_error on malformed input (including DFFs under
    [`Reject]).
    @raise Failure if the netlist is structurally invalid (see
    {!Circuit.Builder.build}). *)

val parse_file : ?sequential:[ `Reject | `Cut ] -> string -> Circuit.t
(** Circuit name is the file's basename without extension. *)

type register = { q : string; d : string }
(** One flip-flop of a register-cut netlist: [q] is the flop output net
    (a pseudo primary input after the cut), [d] the data net it captures
    (a pseudo primary output).  The pairing is what lets a partitioner
    relate a cone's D-side arrival to the next stage's Q-side launch. *)

val parse_string_cut : name:string -> string -> Circuit.t * register list
(** [parse_string ~sequential:`Cut] plus the flip-flops in file order —
    the D->Q bookkeeping the plain parser discards.
    @raise Parse_error / Failure as {!parse_string}. *)

val to_string : Circuit.t -> string
(** Render back to ".bench" text; [parse_string] of the result
    reconstructs an isomorphic circuit. *)

val write_file : string -> Circuit.t -> unit
