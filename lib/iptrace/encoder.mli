(** PT packet encoder.

    Consumes the interpreter's {!Interp.Event.trace_event}s and produces a
    compressed packet stream: conditional branch bits accumulate into short
    TNT packets (up to six bits) that are flushed before any other packet,
    and every trace window is bracketed by PSB/PSBEND...TIP.PGE and
    TIP.PGD.  Events whose address falls outside the filter are dropped,
    like hardware range filtering; a dropped PGE suppresses the whole
    window.

    The encoder keeps only the open window.  Each window goes to
    [on_window] as soon as it closes: at its TIP.PGD or, for a window a
    trap cut short, at the next TIP.PGE or at {!finish}.  A closing window
    takes its pending TNT bits with it. *)

type t

val create : Filter.t -> on_window:(Packet.t list -> unit) -> t
(** [on_window] receives each closed window's packets, in order, from its
    PSB to its TIP.PGD (or to its last packet, when a trap cut it short).
    An exception it raises escapes {!feed} or {!finish}. *)

val feed : t -> Interp.Event.trace_event -> unit

val finish : t -> unit
(** Close the open window, if any.  Call it after the last event; the
    encoder can keep being fed afterwards. *)

val trace_bytes : t -> int
(** Total {!Packet.encoded_size} of the packets emitted so far (pending
    TNT bits count once flushed). *)
