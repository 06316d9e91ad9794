(** One-time lowering of a frozen {!Es_cfg.t} into a form the checker can
    walk without any per-step name resolution (the compiled ES-Checker).

    The interpreted walk pays for its flexibility on every single step:
    block lookups hash a [Program.bref], field accesses hash a name
    through the {!Devir.Layout}, every expression re-walks its
    {!Devir.Expr} tree, request parameters are [List.assoc]'d by name and
    access sets are nested hashtable probes.  None of that can change
    after training: the spec handed to {!Checker.attach} is frozen.  So
    this pass resolves everything once:

    - ES-CFG nodes are renumbered to dense integer ids and stored in a
      flat array; inter-node edges become {!dest} values whose
      pass-through chains (reduced blocks the reference walk traverses
      via [lift_dsod]) are pre-resolved, including goto cycles among
      non-node blocks ({!T_spin}) so walk-limit accounting stays exact.
    - DSOD statements and terminator expressions become OCaml closures
      over a {!cursor} of pre-resolved arena byte offsets, widths and
      local/parameter array slots.  Expressions lower through
      {!Interp.Lower}, the same lowering the device interpreter runs on,
      into closures over the cursor's {!Interp.Lower.env}.
    - Switch cases become sorted arrays (binary search replaces
      [List.assoc]) with a precomputed verdict per case: whether its
      transition was observed and, on a command decision, its command id.
      Values routed to the default and indirect-call target sets are
      looked up in int64 hashtables, per-command access sets become
      [Bytes]-backed bitsets indexed by node id, and the no-command set
      a flag on each node.

    The result {!t} is {b immutable after [lower]}: it holds no mutable
    walk state whatsoever, so one value can be physically shared by every
    VM protecting the same (device, version) — across Runner domains
    too, since the OCaml 5 major heap is shared.  All mutable walk state
    lives in a per-VM {!cursor} ({!make_cursor}); compiled statements
    receive the cursor as an argument, compiled expressions its env.

    Lowering never changes verdicts: the compiled walk must be
    bit-for-bit equivalent to the reference walk — same anomalies at the
    same blocks with the same detail strings, same statistics, same
    shadow-arena bytes (see the differential test). *)

open Devir

type fault =
  | Overflow of {
      at : Program.bref;
      field : string;
      ov : Interp.Eval.overflow;
    }
  | Buf_bounds of {
      at : Program.bref;
      buf : string;
      off : int;
      len : int;
      size : int;
    }

exception Fault of fault
(** Parameter-check violations detected inside compiled statements; the
    checker translates these into its anomaly representation. *)

exception Defer
(** A sync point was reached with [cursor.sync = false]. *)

exception Bail of string
(** Walk cannot continue (missing sync value, unknown callback, ...). *)

(** Where a pre-resolved edge lands after its pass-through chain. *)
type target =
  | T_node of int  (** Dense id of the destination node. *)
  | T_pop  (** Chain ended in an empty [Halt] block: return to stack. *)
  | T_off of Program.bref
      (** Chain reached an off-graph block (never observed in training);
          the bref is the anomaly location. *)
  | T_spin of Program.bref array
      (** Chain entered a goto cycle among non-node blocks; the walk
          spins through the cycle burning steps until the walk limit
          trips, exactly as the reference does. *)

type dest = {
  chain : Program.bref array;
      (** Every non-node block traversed before the target, in order:
          each one costs a walk step and is a potential walk-limit
          anomaly site. *)
  target : target;
}

(** All mutable walk state: per-VM, single-owner, allocated once by
    {!make_cursor}.  The compiled spec {!t} never refers to a cursor;
    closures receive it (or its env) as an argument, so any number of cursors can
    walk one shared spec concurrently (from different domains) without
    interference. *)
type cursor = {
  env : Interp.Lower.env;
      (** What expressions read: the scratch shadow the walk mutates
          ([env.work]) and the local and parameter slots.  Its [oob_read]
          stays a no-op: the checker has no out-of-buffer hook. *)
  llink : bool array;
      (** Local slot is linked to device/request state (the parameter
          check's taint bit).  Meaningful only for a local defined in
          this walk: every store that defines a local writes its bit, and
          nothing clears them between walks. *)
  mutable overflowed : bool;
      (** An overflow was recorded since the current field store began
          evaluating its value (a flag, so clearing it is an immediate
          store). *)
  mutable overflow : Interp.Eval.overflow;
      (** The first overflow recorded since then; stale unless
          [overflowed]. *)
  mutable guest_read : int64 -> int;
  mutable sync : bool;  (** Sync values available (post-run walk). *)
  mutable en_param : bool;  (** Parameter check enabled. *)
  mutable sync_pop : Program.bref -> string -> int64 option;
  mutable steps : int;  (** Walk steps charged so far. *)
  mutable walked : int;  (** Nodes visited this walk. *)
  mutable cctx : int;
      (** Current command context: [-1] none, [-2] unknown, else a dense
          command id (index into {!t.cmd_bits}). *)
  mutable depth : int;  (** Live entries in [stack]. *)
  mutable stack : dest array;  (** Continuations for chained handlers. *)
  mutable bound : int;
      (** [min limit deadline] for this walk: the one step count checked
          on every step.  Only a walk past it tests which of the two
          tripped. *)
  mutable deadline : int;  (** Walk deadline budget for this walk. *)
  entry_memo : dest Interp.Lower.memo;
      (** Request handler names already resolved to entry edges. *)
}

type switch = {
  scrutinee : Interp.Lower.switch;  (** Indexes [case_vals]. *)
  case_vals : int64 array;  (** Static case values, sorted, deduped. *)
  case_dests : dest array;  (** Parallel to [case_vals]. *)
  case_labels : string array;  (** Parallel to [case_vals]. *)
  case_seen : bool array;
      (** Parallel to [case_vals]: the case's (value, label) transition
          was observed in training. *)
  case_cmd : int array;
      (** Parallel to [case_vals]: on a [Cmd_decision] node, the case
          value's command id, or [-1] for a command never observed. *)
  default : dest;
  default_label : string;
  observed : (int64, string list) Hashtbl.t;
      (** Observed transitions: scrutinee value -> destination labels.
          A walk consults it only for a value routed to the default. *)
  cmd_of : (int64, int) Hashtbl.t option;
      (** [Some] on [Cmd_decision] nodes: decoded value -> command id.
          A walk consults it only for a value routed to the default. *)
}

type icall_action =
  | A_chain of dest  (** Chained handler: push continuation, enter. *)
  | A_plain  (** IRQ line / noop callback: continue past the call. *)
  | A_empty  (** Chained handler with no blocks (bail). *)

type icall = {
  fnptr : Interp.Lower.env -> int64;
  legit : int64 -> bool;  (** Observed-target membership. *)
  actions : (int64, icall_action) Hashtbl.t;
  next : dest;
}

type cterm =
  | C_goto of dest
  | C_halt
  | C_branch of {
      cond : Interp.Lower.env -> bool;
      taken0 : bool;  (** Taken direction never observed in training. *)
      not_taken0 : bool;
      if_taken : dest;
      if_not : dest;
    }
  | C_switch of switch
  | C_icall of icall

type cnode = {
  id : int;
  index : int;
      (** The block's index in the program ({!Devir.Program.index_of}):
          what the checker's coverage record is keyed by, under either
          engine. *)
  bref : Program.bref;
  no_cmd : bool;
      (** Accessible with no command current, and so under every command
          context: the walk tests it before the context. *)
  is_cmd_end : bool;
  stmts : (cursor -> unit) array;  (** Compiled DSOD, in order. *)
  term : cterm;
}

(** The immutable shared arena: everything here is read-only after
    {!lower} returns. *)
type t = {
  spec : Es_cfg.t;  (** The frozen spec this was lowered from. *)
  layout : Layout.t;
  nodes : cnode array;  (** Indexed by dense id. *)
  entries : (string, dest) Hashtbl.t;  (** Handler name -> entry edge. *)
  slots : Interp.Lower.ctx;
      (** Local and request-parameter slots of every lowered expression;
          global across handlers because chained handlers share the
          caller's request and locals.  Only read after {!lower}. *)
  cmd_bits : Bytes.t array;  (** Per-command-id bitsets over node ids. *)
  cmd_keys : Es_cfg.cmd_key array;  (** Command id -> key. *)
  cmd_ids : (Es_cfg.cmd_key, int) Hashtbl.t;  (** Key -> command id. *)
  fn_ptr_spans : (int * int) list;
      (** (offset, length) spans of the selection's function-pointer
          parameters, for refreshing from the live control structure. *)
}

val lower : Es_cfg.t -> t
(** Lower a frozen spec into an immutable, shareable compiled form. *)

val make_cursor : ?work:Arena.t -> t -> cursor
(** Allocate the per-VM mutable walk state for [t].  [work] defaults to
    a fresh arena for [t]'s layout; pass the checker's scratch shadow to
    share it.  [guest_read] and [sync_pop] are placeholders the caller
    must set before walking. *)

val cursor_start :
  cursor -> sync:bool -> en_param:bool -> limit:int -> deadline:int -> unit
(** Reset per-walk cursor state in place, in constant time and with
    immediate stores only: one epoch bump forgets every local and
    parameter ({!Interp.Lower.reset}); [bound] becomes
    [min limit deadline]. *)

val push_dest : cursor -> dest -> unit
(** Push a continuation on the cursor's chained-handler stack (amortised
    allocation-free: the stack array doubles on overflow and is reused
    across walks). *)

val bind_params : t -> cursor -> handler:string -> (string * int64) list -> unit
(** Bind a request for [handler] into cursor slots
    ({!Interp.Lower.bind_params}); first binding per name wins, names
    without a slot are ignored (never referenced by any handler). *)

val entry : t -> cursor -> string -> dest
(** The entry edge of a handler, through the cursor's memo of handler
    names.  Raises [Not_found] for an unknown or empty handler. *)

val bit : Bytes.t -> int -> bool
(** Bitset probe ([i]th bit, little-endian within bytes). *)

val set_bit : Bytes.t -> int -> unit
(** Set the [i]th bit (the layout {!bit} reads). *)


val case_observed : switch -> int64 -> string -> bool
(** Was (value -> label) observed in training?  Consults [observed], so
    only for values routed to the default; static cases read
    [case_seen]. *)
