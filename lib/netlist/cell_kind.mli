(** Logic functions of library cells.

    [Pi] marks a primary-input node in the circuit graph; it is not a
    library cell and carries no delay or leakage of its own. *)

type t = Pi | Buf | Not | And | Nand | Or | Nor | Xor | Xnor

val equal : t -> t -> bool
val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts the ISCAS ".bench" spellings ("BUFF",
    "NOT", "AND", …). *)

val eval : t -> bool array -> bool
(** Combinational evaluation.  [Pi] cannot be evaluated.
    @raise Invalid_argument on [Pi] or on an arity the kind does not
    support (e.g. 0 inputs, or 2 inputs for [Not]). *)

val min_arity : t -> int
val max_arity : t -> int
(** Inclusive arity bounds ([max_int] for the n-ary kinds). *)

val all_cells : t list
(** Every kind except [Pi], i.e. the kinds a technology library provides. *)

val pp : Format.formatter -> t -> unit
