(** Response-direction execution profiles (the guest-side mirror of the
    ES-CFG).

    SEDSpec's checker trains over the guest->host direction: what requests
    a driver issues and how the device's state machine answers them.  A
    {e hostile device model} attacks the opposite channel — the values it
    returns, the completions it writes, the interrupts it raises.  This
    module trains a compact automaton over that host->guest stream (the
    {!Interp.Event.response_event} seam):

    - a {b kind bigram}: which response kinds may open an interaction and
      which may follow which (read-return, outbound DMA, completion
      store, IRQ raise — IRQ lowers are housekeeping and are ignored);
    - {b value envelopes}: for read-returns and completion stores, the
      all-bits-below-highest-observed-bit mask, so any value of a trained
      magnitude passes and a corrupted high bit or poisoned pattern does
      not;
    - {b volume bounds}: maximum outbound-DMA length (x2 slack), maximum
      IRQ raises and total response events per interaction.

    Like the request-direction trainer, profiles generalise by
    construction and never trip on the traffic that trained them. *)

type kind = K_read | K_dma | K_store | K_irq

val kind_index : kind -> int
val kind_to_string : kind -> string

type profile = {
  device : string;
  starts : bool array;  (** Kinds that may open an interaction. *)
  follows : bool array array;  (** [follows.(a).(b)]: b may follow a. *)
  read_mask : int64;  (** Envelope for {!Interp.Event.R_read_return}. *)
  store_mask : int64;  (** Envelope for {!Interp.Event.R_store}. *)
  dma_len_max : int;  (** Outbound-DMA length bound (trained max x2). *)
  irq_max : int;  (** IRQ raises per interaction. *)
  events_max : int;  (** Response events per interaction (trained max x2). *)
  trained_interactions : int;
}

val below_mask : int64 -> int64
(** Smear the highest set bit downward: the envelope contribution of one
    observed value. *)

type collector

val collector : unit -> collector
val observe : collector -> Interp.Event.response_event -> unit
val boundary : collector -> unit
(** Close the open interaction (fold its event/IRQ totals into the
    maxima).  Call at every dispatch boundary. *)

val finalize : collector -> device:string -> profile

val fail_closed : device:string -> profile
(** The profile for an untrained (device, version) pair: empty
    start/follow matrices and zero volume bounds, so a validator running
    it flags {e every} host→guest response event.  Canaried versions with
    no benign corpus get a safe guard instead of none. *)

val is_fail_closed : profile -> bool
(** True for profiles with no benign evidence (as built by
    {!fail_closed}): zero trained interactions and no admissible opening
    kind. *)

val train :
  Vmm.Machine.t ->
  device:string ->
  Sedspec.Pipeline.trainer ->
  profile
(** Run the benign training corpus with the collector added as a
    response-hook layer and an interposer layer at the dispatch boundary;
    both layers are removed afterwards (exception-safe). *)

val pp : Format.formatter -> profile -> unit
