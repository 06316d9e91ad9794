(** The benchmark's three closed-loop workloads: one process, one domain,
    one client, production defaults ([vmexit_cost = 0], the spec cache's
    24 training cases, the compiled walk engine, protection mode).

    - [pio]: fdc sector reads and writes through the data port and sdhci
      512-byte block reads and writes through the buffer-data port, on
      sequential sectors and LBAs.  Every payload byte is one checked
      interaction, so the spec walk has its largest share of op time
      here.
    - [net]: pcnet 1460-byte TX and RX streams (RX frames compared byte
      for byte with what the host sent) and 64-byte pings; every eighth
      step also acknowledges interrupts and reads the link state (BCR4,
      the only sync-deferred traffic).  The device's byte-wise DMA copy
      loops dominate.
    - [fleet]: eight [Fleet.Vm]s, two each of ehci, pcnet, scsi and
      virtio, with the guard on, one VM per device shadow-walking a
      retrained candidate and [rare_prob = 0], ticked round-robin.  Most
      of a tick is the remedy checkpoint of 16 MiB of guest RAM.

    A {e tick} is one step of the client: four transfers in [pio], a TX
    frame, an RX frame and a ping in [net], one [Fleet.Vm.tick] in
    [fleet].  The seed picks the starting sector and LBA, the payload
    and frame bytes and the VM seeds.  In [pio] and [net] it leaves the
    work of a tick unchanged; in [fleet] it varies the soak parameters
    (frame lengths, block numbers) within the same op sequence. *)

type io = {
  mutable ops : int;
  mutable failed : int;
  mutable read_bytes : int;  (** Payload, device to guest. *)
  mutable write_bytes : int;  (** Payload, guest to device. *)
}

val io : io
(** Running totals of every op the workload has issued, set-up included. *)

type t = {
  ticks_per_round : int;
  tick : int -> unit;
      (** Run tick [i] (a global, increasing index); verifies the data
          and counts failures into {!io}. *)
  checkers : Sedspec.Checker.t list;  (** Enforcing checkers, for their stats. *)
  seams : (Vmm.Machine.t * string) list;  (** Interposers the tracer wraps. *)
  failures : unit -> (string * int) list;
      (** Anomalies, halts, crashes and warnings so far, by cause. *)
  detect : string list;  (** Catalogued exploits the gate must detect. *)
  miss : string list;  (** Catalogued exploits that must stay missed. *)
}

val names : string list

val setup_repeats : string -> int
(** Cold set-ups per untraced run of the named workload: five, or three
    for [pio], whose set-up trains the fdc spec for about 10 s. *)

val setup_spans : (string * float * float) list ref
(** Set-up spans recorded by {!setup} [~traced:true], newest first:
    name, start and end in process CPU seconds. *)

type setup_costs = {
  mutable trace_bytes : int;  (** PT volume of the standalone collects. *)
  mutable retained_words : float;  (** Live words added by cached builds. *)
  mutable builds : int;
}

val costs : setup_costs

val setup : string -> seed:int64 -> traced:bool -> t
(** Train, create and initialise the named workload.  With [~traced]
    every set-up call is recorded as a span, and each trainer also runs
    a standalone [Pipeline.collect] and [Pipeline.construct] so their
    costs are seen apart; the live heap each cached build retains is
    measured after a full major collection.  Raises [Failure] if a
    device fails to initialise. *)
