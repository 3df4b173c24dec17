(** Combinational gate-level circuits.

    A circuit is a DAG of gates stored in topological order: every gate's
    fanins have smaller indices than the gate itself, so analyses can run
    in a single forward (or backward) array sweep.  Construction goes
    through {!Builder}, which validates the graph and computes the
    topological numbering, fanout lists and levels once. *)

type gate = {
  id : int;                    (** index into [gates]; topological order *)
  name : string;               (** net name driven by this gate *)
  kind : Cell_kind.t;
  fanin : int array;           (** ids of driver gates, in pin order *)
  fanout : int array;          (** ids of gates reading this net *)
  level : int;                 (** 0 for PIs, 1 + max level of fanins *)
}

type t = private {
  name : string;
  gates : gate array;
  inputs : int array;          (** ids of primary-input nodes *)
  outputs : int array;         (** ids of gates driving primary outputs *)
  depth : int;                 (** max level over all gates *)
  is_output : bool array;      (** gate id -> drives a primary output *)
}

val num_gates : t -> int
(** Total node count, primary inputs included. *)

val num_cells : t -> int
(** Logic cells only (nodes that map to library cells). *)

val gate : t -> int -> gate
val find : t -> string -> gate option
(** Look a gate up by net name (O(n); intended for tests and CLIs). *)

val is_po : t -> int -> bool
(** Whether gate [id] drives a primary output.  O(1): reads
    [is_output]. *)

val eval : t -> bool array -> bool array
(** [eval c ins] simulates the circuit; [ins] are primary-input values in
    [c.inputs] order, the result is in [c.outputs] order.
    @raise Invalid_argument on input-length mismatch. *)

val eval_all : t -> bool array -> bool array
(** Like {!eval} but returns the value of every net, indexed by gate id —
    what state-dependent leakage analysis needs. *)

val levels : t -> int array array
(** Gates grouped by level, level 0 first. *)

val fanout_cone : t -> int -> int array
(** Ids of all gates in the transitive fanout of [id] (excluding [id]),
    in topological order. *)

val fanin_cone : t -> int -> int array
(** Transitive fanin of [id] (excluding [id]), topological order. *)

(** A register-boundary decomposition of a circuit into independently
    timeable combinational cones.  See {!partition_at_registers}. *)
type partition = {
  parts : t array;
      (** the cones, as self-contained sub-circuits; part order is
          deterministic (numbered by smallest global gate id) *)
  part_of : int array;  (** global gate id -> index into [parts] *)
  local_of : int array; (** global gate id -> gate id inside its part *)
  part_ids : int array array;
      (** part -> ascending global gate ids; the inverse of [local_of] *)
}

val partition_at_registers : t -> partition option
(** Split a register-cut circuit (parsed with [~sequential:`Cut]) into
    its connected combinational components.  Every gate lands in exactly
    one part; local ids are a monotone remap of global ids, so each part
    keeps the global topological order, level values, fanin pin order
    and sorted fanouts — per-part analysis is bit-identical to analyzing
    the flat circuit.  Dangling primary inputs with no readers ride
    along in the first part.  Returns [None] when the decomposition
    would not help: fewer than two components (e.g. a purely
    combinational netlist) or a component with cells but no primary
    output (no timing sink to stitch through). *)

val stats : t -> string
(** Human-readable one-line summary (gate count, depth, avg fanout). *)

val pp : Format.formatter -> t -> unit

(** Imperative circuit construction with validation. *)
module Builder : sig
  type circuit := t
  type t

  val create : string -> t
  (** [create name] starts an empty circuit. *)

  val add_input : t -> string -> int
  (** Declare a primary input; returns its node id (pre-toposort).
      @raise Invalid_argument on duplicate net names. *)

  val add_gate : t -> string -> Cell_kind.t -> string list -> int
  (** [add_gate b name kind fanins] adds a gate driving net [name] whose
      inputs are the named nets.  Fanin nets may be declared later
      (forward references are resolved at [build] time).
      @raise Invalid_argument on duplicate names, [Pi] kind or bad arity. *)

  val mark_output : t -> string -> unit
  (** Declare net [name] to be a primary output. *)

  val build : t -> circuit
  (** Validate (no dangling nets, no cycles, outputs exist) and produce
      the topologically-ordered circuit.
      @raise Failure with a descriptive message on invalid netlists. *)
end
