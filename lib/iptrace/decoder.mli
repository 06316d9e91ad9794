(** PT packet decoder.

    Reconstructs the exact basic-block path of each trace window from the
    packet stream plus the static device program, the way FlowGuard-style
    decoders reconstruct flow from PT packets plus the binary: gotos are
    followed statically, each conditional branch consumes one TNT bit,
    each switch consumes a TIP packet resolved to a block address, and each
    indirect call consumes a TIP carrying the raw function-pointer value
    (following into chained handlers when the callback table says so). *)

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

val decode : Devir.Program.t -> Packet.t list -> trace list
(** Decode every trace window in the stream, one trace per window; the
    stream may hold one window or many.  A window must end at its TIP.PGD,
    unless a wild jump ended it.  Raises {!Desync} on malformed streams,
    including a window that any other trap cut short. *)

val pp_step : Format.formatter -> step -> unit
