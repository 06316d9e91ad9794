(** One-time lowering of device-IR expressions into closures over
    resolved arena offsets and dense local/parameter slots.

    Both executors of the IR lower through this module: the device
    interpreter ({!Interp.create}) and the ES-Checker's compiled walk
    ([Sedspec.Compile.lower]).  A {!ctx} resolves names once — fields to
    width-specialised loads at fixed offsets, buffers to
    [(offset, size)] pairs, locals and parameters to program-wide slots —
    and the resulting closures read and write an {!env} that the caller
    owns.  Evaluation order, wrap detection and exceptions are exactly
    those of {!Eval.eval}, which stays as the reference evaluator.

    Lowering is typed by the range of each value.  A W8–W32 field or
    binop, a buffer byte or length, a comparison and [Not] are narrow:
    their values lie in [\[0, 2^32)] and their closures return an
    unboxed [int] (or a [bool]).  Parameters, locals, W64 fields and W64
    binops are wide and stay [int64].  Each consumer asks for the type it
    uses ({!int_expr}, {!int64_expr}, {!bool_expr}), so a walk that only
    reads narrow state allocates nothing.

    The one behavioural difference between the two callers is carried in
    the env: the device fires its [on_oob] hook when a [Buf_byte] read
    leaves its buffer; the checker passes a no-op. *)

open Devir

type 'a memo
(** A few names looked up recently, found again by physical identity
    before any hashing: the slot found last first, then the others.
    Requests name their handler with the same string constant every
    time, as they do their parameters ({!bind_params}). *)

type plan
(** How one handler's requests list their parameters: the name at each
    position and its slot, resolved from the handler's first request. *)

type env = {
  work : Arena.t;  (** The control structure expressions read. *)
  locals : int64 array;
  ldef : int array;
      (** The [epoch] at which each local slot was last defined: a local
          is defined in this run when its stamp equals [epoch]. *)
  params : int64 array;
  pdef : int array;  (** As [ldef], for parameter slots bound this run. *)
  mutable epoch : int;
      (** The run's stamp.  {!reset} increments it, which forgets every
          local and parameter at once. *)
  mutable record_overflow : Eval.overflow -> unit;
      (** Called on every arithmetic wrap. *)
  mutable oob_read : Program.bref -> string -> int -> unit;
      (** [oob_read at buf index]: a [Buf_byte] read at block [at] left
          [buf]'s declared extent (it may still land inside the arena). *)
  plans : plan memo;  (** {!bind_params}' plan per handler name. *)
  mutable scrut : int;
  scrut_wide : Bytes.t;
      (** The last switch scrutinee, narrow or wide (eight bytes,
          native-endian; {!switch}): storing it needs no write barrier. *)
}

type ctx
(** Name resolution shared by every expression of one program (or spec):
    the layout plus the local and parameter slot allocators.  Locals are
    keyed purely by name across all handlers, so chained handlers share
    them, exactly like the reference interpreter's single table. *)

val create : Layout.t -> ctx
(** A fresh context over a control-structure layout, with no slots. *)

val arena_size : ctx -> int
(** Byte size of the layout's control structure. *)

val local_slot : ctx -> string -> int
(** Slot of a local, allocated on first mention. *)

val find_local : ctx -> string -> int option
(** Slot of a local some lowered code mentions, without allocating. *)

val n_locals : ctx -> int
(** Local slots allocated so far. *)

val unresolved : at:Program.bref -> ('a, unit, string, 'b) format4 -> 'a
(** Fail closed: raise [Invalid_argument] naming the block [at]. *)

val scalar : ctx -> at:Program.bref -> string -> int * Width.t
(** Offset and width of a scalar field ([Fn_ptr] is [W64]).  Raises
    [Invalid_argument] naming [at] for unknown fields and buffers. *)

val int_writer : Width.t -> Arena.t -> int -> int -> unit
(** Store of a W8–W32 field at an absolute offset; keeps the low bits,
    as {!Devir.Arena.set} does.  [W64] fields take {!Devir.Arena.write_u64}. *)

type buf = { name : string; base : int; size : int }
(** A buffer resolved to its arena offset and declared size. *)

val buffer : ctx -> at:Program.bref -> string -> buf
(** Raises [Invalid_argument] naming [at] for unknown fields and
    non-buffers. *)

val int_expr : ctx -> at:Program.bref -> Expr.t -> env -> int
(** Lower one expression of block [at] to [Int64.to_int] of its value:
    for offsets, lengths, indices, bytes and narrow field stores.  The
    closures below may raise {!Eval.Div_by_zero}, {!Eval.Undefined_param},
    {!Eval.Undefined_local} or {!Devir.Arena.Out_of_arena}, exactly where
    {!Eval.eval} would. *)

val int64_expr : ctx -> at:Program.bref -> Expr.t -> env -> int64
(** The full value: for addresses, responses, locals and W64 stores.  A
    narrow value is boxed here. *)

val bool_expr : ctx -> at:Program.bref -> Expr.t -> env -> bool
(** Truthiness ({!Eval.truthy}): for branch conditions. *)

val make_env : ctx -> work:Arena.t -> env
(** Storage for every slot [ctx] has allocated so far (lower all code
    first); hooks start as no-ops. *)

val reset : env -> unit
(** Forget all locals and parameters: one increment of [epoch], whatever
    the number of slots. *)

val defined : env -> int -> bool
(** [defined env s]: local slot [s] was defined in this run. *)

val define : env -> int -> int64 -> unit
(** Store a local and stamp it defined in this run. *)

val bind_params : ctx -> env -> handler:string -> (string * int64) list -> unit
(** Bind a request's parameters for [handler]; the first binding of a
    name wins and names no lowered code reads are ignored.  The first
    request a handler gets resolves a plan of slots by position; a later
    request whose names are physically the plan's binds without hashing,
    and one that is not binds by name from the first position that
    differs. *)

(** {1 Handler names} *)

val memo : int -> 'a -> 'a memo
(** [memo n dummy]: room for [n] names; [dummy] fills the empty slots. *)

val memo_find : 'a memo -> (string, 'a) Hashtbl.t -> string -> 'a
(** [memo_find m tbl name]: [Hashtbl.find tbl name], remembered in [m].
    A name [tbl] lacks raises [Not_found] and is not remembered. *)

(** {1 Switch tables} *)

val sorted_cases : (int64 * 'a) list -> int64 array * 'a array
(** A switch's cases with duplicate values dropped (the first binding
    wins, as in [List.assoc]) and sorted by value for {!switch}. *)

type switch = {
  index : env -> int;
      (** Evaluate the scrutinee and return its position in the sorted
          case values; [-1] means "take the default".  Allocation-free. *)
  value : env -> int64;
      (** The scrutinee value of the last [index] on this env (boxed when
          narrow: for observations, default routes and diagnostics). *)
}

val switch : ctx -> at:Program.bref -> Expr.t -> int64 array -> switch
(** Lower a switch scrutinee over case values from {!sorted_cases}. *)
