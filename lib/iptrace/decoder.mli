(** PT packet decoder.

    Reconstructs the exact basic-block path of each trace window from the
    packet stream plus the static device program, the way FlowGuard-style
    decoders reconstruct flow from PT packets plus the binary: gotos are
    followed statically, each conditional branch consumes one TNT bit,
    each switch consumes a TIP packet resolved to a block address, and each
    indirect call consumes a TIP carrying the raw function-pointer value
    (following into chained handlers when the callback table says so).
    Blocks are found by index, switch targets and window entries by
    address arithmetic: the walk hashes no block name. *)

type transfer =
  | Fall                      (** Unconditional (goto). *)
  | Taken
  | Not_taken
  | Sw of Devir.Program.bref  (** Switch destination. *)
  | Call of int64             (** Indirect call target value. *)
  | End                       (** Handler halt. *)

type step = { block : Devir.Program.bref; transfer : transfer }

type trace = step list
(** One PGE..PGD window. *)

exception Desync of string
(** The packet stream is inconsistent with the program (missing TNT bits,
    unresolvable TIP, truncated window, filtered-out indirect target). *)

val walk :
  Devir.Program.t ->
  Packet.t list ->
  on_step:(int -> transfer -> unit) ->
  on_close:(unit -> unit) ->
  unit
(** Decode every trace window in the stream; the stream may hold one
    window or many.  The walk follows the program's block index
    ({!Devir.Program.index_of}) and hands each step to [on_step] as it
    reaches it: the block's index and how the block left.  [on_close]
    runs after each window's last step.  A window must end at its
    TIP.PGD, unless a wild jump ended it.  Raises {!Desync} on malformed
    streams, including a window that any other trap cut short; the steps
    before the fault have been handed over by then.  A label that names no
    block raises [Not_found] when the walk reaches it. *)

val decode : Devir.Program.t -> Packet.t list -> trace list
(** {!walk}'s steps as lists, one trace per window. *)
