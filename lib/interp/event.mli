(** Events and outcomes produced by executing a device program.

    Three consumers observe execution through these types:
    - the PT simulator subscribes to {!trace_event}s (the information Intel
      PT would capture in hardware);
    - SEDSpec's data-collection phase subscribes to {!observe_entry}s from
      the observation points it instrumented;
    - the experiments use {!oob_event}s and {!trap}s as *ground truth* for
      whether an exploit actually corrupted memory or hung the device. *)

type trace_event =
  | Pge of int64
      (** Trace enable at an address — handler entry (TIP.PGE analog). *)
  | Tnt of bool  (** One conditional-branch bit: taken / not taken. *)
  | Tip of int64
      (** Indirect transfer target: a switch destination's block address or
          a function-pointer value. *)
  | Pgd  (** Trace disable — the handler returned (TIP.PGD analog). *)

type obs_outcome =
  | O_goto of string
  | O_taken
  | O_not_taken
  | O_case of int64 * string  (** Switch scrutinee value and chosen label. *)
  | O_icall of int64          (** Function-pointer value called. *)
  | O_halt

type observe_entry = {
  index : int;  (** The block's place in {!Devir.Program.index_of}. *)
  block : Devir.Program.bref;
  outcome : obs_outcome;
      (** How the block left; a switch's carries the decoded command. *)
}
(** What an observation point reports: which block ran and where it went,
    all that Algorithm 1 reads to restore the path.  Kind, statements and
    terminator are the program's, found by [index]; a hook that wants
    device state reads the arena itself. *)

type oob_event = {
  oob_block : Devir.Program.bref;
  oob_buf : string;
  oob_index : int;
  oob_write : bool;
}
(** A buffer access outside the buffer's declared bounds (but still inside
    the control structure) — silent corruption, like the C originals. *)

type response_event =
  | R_read_return of int64  (** [Respond] value handed back for a read. *)
  | R_dma_out of { addr : int64; len : int }  (** [Copy_to_guest]. *)
  | R_store of { addr : int64; value : int64; width : Devir.Width.t }
      (** [Write_guest] — completion/status writes into guest memory. *)
  | R_irq of bool  (** IRQ line raised/lowered through a callback. *)
(** One crossing of the host→guest channel, as the guest experiences it —
    the event stream the guest-side validator trains and enforces over. *)

type trap =
  | Wild_jump of { block : Devir.Program.bref; target : int64 }
      (** Indirect call through a value with no registered callback. *)
  | Icall_blocked of { block : Devir.Program.bref; target : int64 }
      (** Indirect call vetoed by an installed guard (SEDSpec's inline
          indirect jump enforcement). *)
  | Div_by_zero of Devir.Program.bref
  | Out_of_arena of { block : Devir.Program.bref; field : string; index : int }
      (** Buffer access escaped the whole control structure (host crash). *)
  | Undefined_param of { block : Devir.Program.bref; param : string }
  | Undefined_local of { block : Devir.Program.bref; local : string }
  | Step_limit
      (** The step budget ran out — the analog of an emulated-device
          infinite loop (e.g. CVE-2016-7909). *)
  | Depth_limit  (** Callback chaining recursed too deep. *)

type outcome =
  | Done of { response : int64 option }
  | Trapped of trap

val pp_trace_event : Format.formatter -> trace_event -> unit
val pp_obs_outcome : Format.formatter -> obs_outcome -> unit
val pp_observe_entry : Format.formatter -> observe_entry -> unit
val pp_response_event : Format.formatter -> response_event -> unit
val pp_trap : Format.formatter -> trap -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val trap_to_string : trap -> string
