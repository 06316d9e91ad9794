(** The Execution Specification CFG (paper §V) and its constructor
    (Algorithm 1).

    Nodes correspond to source basic blocks observed during benign
    training.  Each node carries:

    - {b DSOD} (Device State Operation Data): the lifted source statements
      that compute device state — state writes plus the local/guest-read
      definitions they depend on (the product of data dependency
      recovery);
    - {b NBTD} (Next Block Transition Data): the source terminator
      together with the observed transition behaviour — taken/not-taken
      counts for conditional branches, the observed case set for switches
      and the observed (legitimate) target set for indirect calls.

    The constructor consumes device state change logs: it restores each
    interaction's full block path from the observation-point entries (the
    gaps between observation points are deterministic goto chains), builds
    nodes and transition edges, and maintains the command access table —
    for every decoded command, the set of blocks reachable while that
    command is current.  Command context persists across I/O interactions
    until a command end block, as device commands span many port
    accesses.  The restoration walks the program's block index
    ({!Devir.Program.index_of}): nodes and access sets are arrays over it,
    and it fails closed ({!Restore_failed}) on a log that contradicts the
    program. *)

type node = {
  bref : Devir.Program.bref;
  kind : Devir.Block.kind;
  dsod : Devir.Stmt.t list;
  term : Devir.Term.t;
  sync_locals : string list;
      (** Locals loaded from host-side values in this block: the checker
          cannot compute them and must synchronise from the device run. *)
  mutable visits : int;
  mutable taken : int;
  mutable not_taken : int;
  mutable cases : (int64 * string) list;  (** Observed case value/label. *)
  mutable itargets : int64 list;  (** Legitimate indirect targets. *)
  mutable succs : Devir.Program.bref list;
}

type cmd_key = Devir.Program.bref * int64
(** A command is identified by its decision block and decoded value. *)

(** Where the spec's learned content came from.  [Trained] is the one-shot
    paper pipeline (the default); [Retrained n] a fresh training pass on an
    [n]-case corpus. *)
type provenance = Trained | Retrained of int

type t

val create : program:Devir.Program.t -> selection:Selection.t -> t

type ctx
(** The command context of Algorithm 1: which device command, if any, the
    interactions folded so far left in progress. *)

val case_start : ctx
(** The context at the start of a test case: no command in progress. *)

exception Restore_failed of string
(** An interaction's log does not restore to a path through the program:
    an entry does not match the block the walk reached (a missing entry,
    one of another block, an outcome of the wrong kind, or a case label
    that is not the switch's), the walk ran past 1,000,000 blocks, or
    entries were left over when it ended. *)

val add_interaction : t -> ctx -> Ds_log.interaction -> ctx
(** Fold one benign interaction into the specification, starting from
    the context the previous interaction of its test case left (or
    {!case_start}), and return the context it leaves.  Interactions must
    be added in training order.  The only early end is an indirect call
    through a value no callback claims (a wild jump, where the
    interaction trapped); any other log that does not restore raises
    {!Restore_failed}, and a spec that folds one must be discarded.
    Raises [Invalid_argument] on a spec that {!reduce} or {!import_node}
    has touched: training folds into a fresh spec ({!create}) only. *)

val program : t -> Devir.Program.t
val selection : t -> Selection.t

val decision_scalars : t -> (string * int * int) array
(** The selection's decision-relevant scalars (branch influencers, index
    parameters and called function pointers), in selection order, each
    with its layout offset and size in bytes; offset -1 for a name that
    is not a scalar field of the layout.  Resolved once, at {!create}:
    every checker's {!Checker.heal} compares these bytes.  Do not mutate
    the array. *)

val revision : t -> int
(** Monotonically increasing spec revision.  Freshly trained specs (and
    legacy persisted files with no [revision] line) are revision 0; every
    evolution derivation bumps it, so the rollout ladder can order, pin
    and roll back spec generations. *)

val provenance : t -> provenance

val set_version : t -> revision:int -> provenance:provenance -> unit
(** Stamp a derivation.  Raises [Invalid_argument] on a negative
    revision. *)

val provenance_to_string : provenance -> string
(** ["trained"] or ["retrained:N"] — the tag {!Persist} writes. *)

val provenance_of_string : string -> provenance option

val node : t -> Devir.Program.bref -> node option

val index_of : t -> Devir.Program.bref -> int
(** The block's index in the program ({!Devir.Program.index_of}), or -1
    for a block the program lacks. *)

val node_at : t -> int -> node option
(** The node at a block index; [None] for -1 and for a block with no
    node.  [node t b] is [node_at t (index_of t b)]. *)

val nodes : t -> node list
val node_count : t -> int

val entry_of : t -> string -> Devir.Program.bref
(** Entry block of a handler (from the program). *)

val cmd_known : t -> cmd_key -> bool
val cmd_allows : t -> cmd_key -> Devir.Program.bref -> bool
val no_cmd_allows : t -> Devir.Program.bref -> bool

val cmd_key_compare : cmd_key -> cmd_key -> int
(** Total order on commands: (decision bref, value). *)

val commands : t -> cmd_key list
(** All decoded commands, sorted by (decision bref, value) — the order is
    part of the spec's observable surface: it feeds reports, viz and the
    dense command-id assignment both walk engines share. *)

val sync_points : t -> (Devir.Program.bref * string list) list
(** All nodes with host-value locals — where sync instrumentation goes.
    Sorted by bref. *)

val access_entries : t -> (cmd_key option * Devir.Program.bref) list
(** The full command access table as (command, member) rows, [None] being
    the no-command set; deterministically ordered.  Inverse of repeated
    {!import_access} — used to diff access state across specs
    ({!Evolve}). *)

val reduce : t -> int
(** Control flow reduction: delete nodes with no device-state operations
    and an unconditional transfer (the checker walks through such blocks
    without work).  Surviving nodes' successor edges are rewritten
    through the removed blocks (chasing the walker's pass-through rule),
    so no dangling successors remain.  Returns the number of nodes
    removed by this call; the {!reduced} statistic counts each distinct
    bref once, making repeated reduction idempotent.  The spec no longer
    accepts {!add_interaction}. *)

val reduced_count : t -> int
(** Nodes reduced away so far (distinct brefs). *)

val validate : t -> Devir.Validate.error list
(** Graph well-formedness over the program: every node has a source
    block and every successor edge lands on a node, possibly through
    pass-through blocks ({!Devir.Validate.check_graph} with the DSOD
    lifting rule).  Empty on healthy and reduced specs. *)

val lift_dsod : Devir.Stmt.t list -> Devir.Stmt.t list
(** The DSOD lifting rule (exposed for tests): keeps state writes, local
    definitions, guest reads and host-value loads; drops responses, guest
    stores and notes. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Import (spec persistence)} *)

val import_node :
  t ->
  Devir.Program.bref ->
  visits:int ->
  taken:int ->
  not_taken:int ->
  cases:(int64 * string) list ->
  itargets:int64 list ->
  succs:Devir.Program.bref list ->
  unit
(** Recreate a node from persisted training statistics; DSOD/NBTD come
    from the program source.  Used by {!Persist}.  Raises [Not_found] for
    a block the program lacks.  The spec no longer accepts
    {!add_interaction}. *)

val import_access : t -> cmd:cmd_key option -> Devir.Program.bref -> unit
(** Mark a block accessible under a command ([None] = the no-command
    set).  Raises [Not_found] for a block the program lacks. *)
