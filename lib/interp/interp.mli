(** The device-program interpreter.

    Executes one I/O interaction (one handler invocation, plus any handler
    chaining through function-pointer callbacks) against a live control
    structure and guest memory.  Execution streams {!Event.trace_event}s to
    the PT simulator, fires observation points for SEDSpec's data
    collection, and reports memory-corruption ground truth.

    {!create} lowers the program once: blocks become an array with
    successor indices and precomputed trace packets, fields become
    width-specialised loads and stores at fixed arena offsets, buffers
    become [(offset, size)] pairs, and locals and parameters become
    program-wide slots ({!Lower}).  A run does no name lookup except for
    the request's handler and its parameters. *)

type guest = {
  read_byte : int64 -> int;
  write_byte : int64 -> int -> unit;
}
(** Guest physical memory access, supplied by the machine model.  DMA
    statements go through these. *)

type hooks = {
  on_trace : Event.trace_event -> unit;
  on_block : Devir.Program.bref -> Devir.Block.kind -> unit;
      (** Fires on entry to every block (used for coverage measurement). *)
  on_observe : Event.observe_entry -> unit;
      (** Fires for instrumented blocks only (observation points). *)
  on_oob : Event.oob_event -> unit;
  on_irq : bool -> unit;  (** IRQ line raised ([true]) or lowered. *)
  on_overflow : Eval.overflow -> unit;
      (** Every arithmetic wrap during device execution (ground truth). *)
  on_response : Event.response_event -> unit;
      (** Fires at every host→guest seam: read-return values, outbound DMA,
          completion writes into guest memory, IRQ line transitions.  The
          guest-side validator trains and enforces over this stream. *)
}

val silent_hooks : hooks
(** Hooks that drop every event. *)

type response_fault = {
  rf_read : (int64 -> int64) option;
  rf_dma_len : (int -> int) option;
  rf_store : (int64 -> int64) option;
  rf_irq_burst : int;
}
(** A corruption of the host→guest channel, applied inside the interpreter
    after expression evaluation but before the value reaches the guest —
    the device's own (shadowed) state never diverges, so both checker
    engines see identical effects.  [rf_read] mangles {!Devir.Stmt.Respond}
    values, [rf_dma_len] mangles {!Devir.Stmt.Copy_to_guest} lengths (a
    mangled length may trap as {!Event.Out_of_arena} — contained as an
    [Io_fault]), [rf_store] mangles {!Devir.Stmt.Write_guest} values, and
    [rf_irq_burst] injects that many extra raise/lower toggles per IRQ
    raise. *)

val no_response_fault : response_fault
(** All corruptors off — identity behaviour. *)

type config = {
  step_limit : int;   (** Blocks executed before declaring a hang. *)
  depth_limit : int;  (** Maximum handler-chaining depth. *)
}

val default_config : config
(** [step_limit = 100_000], [depth_limit = 8]. *)

type t

val create :
  ?config:config ->
  ?hooks:hooks ->
  program:Devir.Program.t ->
  arena:Devir.Arena.t ->
  guest:guest ->
  unit ->
  t
(** Lower [program] against [arena]'s layout.  Raises [Invalid_argument]
    naming the block when a field, buffer or block label the program uses
    does not resolve, or naming the callback when it runs an unknown
    handler ({!Devir.Validate} rejects such programs). *)

val set_hooks : t -> hooks -> unit
val hooks : t -> hooks
val program : t -> Devir.Program.t
val arena : t -> Devir.Arena.t

val set_observation :
  t -> points:Devir.Program.bref list -> state_params:string list -> unit
(** Install observation points: on leaving any block in [points], emit an
    {!Event.observe_entry} carrying the current values of [state_params]
    (scalar fields only — buffers are tracked through their index/length
    parameters, per the paper's data-volume rule).  Replaces any earlier
    points; a bref that names no block is ignored.  Raises
    [Invalid_argument] if a state parameter is not a scalar field. *)

val clear_observation : t -> unit

val set_icall_guard : t -> (Devir.Program.bref -> int64 -> bool) option -> unit
(** Install an inline guard consulted at every indirect call, {e after} the
    target value is computed but {e before} the callback runs.  Returning
    [false] aborts the interaction with {!Event.Icall_blocked} — this is
    where SEDSpec's indirect jump check enforces at runtime. *)

val clear_icall_guard : t -> unit

val set_response_fault : t -> response_fault option -> unit
(** Arm (or with [None] clear) a host→guest corruption on this device. *)

val response_fault : t -> response_fault option

val set_host_values : t -> (string -> int64) -> unit
(** Provide host-side values for {!Devir.Stmt.Host_value} statements
    (default: every key reads 0). *)

val set_sync_points :
  t ->
  (Devir.Program.bref * string list) list ->
  on_sync:(Devir.Program.bref -> (string * int64) list -> unit) ->
  unit
(** Install sync points: after the statements of a listed block run, the
    current values of the listed handler locals are reported to [on_sync]
    (locals not set in this run are left out).  Replaces any earlier sync
    points; a bref that names no block is ignored.  This is the paper's
    data-dependency fallback — when a branch variable cannot be recomputed
    from device state, the ES-Checker synchronises it from the real device
    execution. *)

val run :
  t -> handler:string -> params:(string * int64) list -> Event.outcome
(** Execute one I/O interaction.  Raises [Invalid_argument] if [handler]
    is unknown or has no blocks.  Hooks, the icall guard, host values and
    response faults are read when they are used.  A hook must not call
    [run] on the same interpreter: runs share its local slots. *)

val null_guest : guest
(** Guest memory that reads zero and ignores writes (for unit tests). *)

val bytes_guest : bytes -> guest
(** Guest memory backed by a byte buffer; out-of-range accesses read zero /
    are dropped.  An address with bit 63 set is out of range. *)

(** {1 Re-exports} *)

module Event : module type of Event
module Eval : module type of Eval
module Lower : module type of Lower
(** The expression lowering shared with the ES-Checker's compiled walk. *)
