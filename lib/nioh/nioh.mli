(** Nioh baseline (Ogasawara & Kono, ACSAC 2017) — the paper's main point
    of comparison.

    Nioh hardens the hypervisor by filtering illegal I/O requests against a
    {e hand-written} device state transition model derived from the device
    specification.  This module implements that approach for the devices
    the Nioh experiment covered: an abstraction function from the live
    control structure to a small set of named states, a hand-enumerated
    allowed-transition relation over classified inputs, and manually
    written state invariants (e.g. "data_pos never exceeds the 512-byte
    FIFO").

    The contrast the paper draws is reproduced exactly:
    - Nioh's manual models encode semantic rules SEDSpec cannot learn —
      its SCSI model knows a completion is only legal while a request is
      active, so it {e detects} the CVE-2016-1568 analog that SEDSpec
      misses;
    - but every model below had to be written by hand from the device
      documentation, which is the scalability cost SEDSpec removes. *)

type astate = string
(** Abstract device state label (e.g. ["idle"], ["exec-read"]). *)

type input = string
(** Input class label (e.g. ["data-write"], ["cmd:iccs"]). *)

type spec = {
  device : string;
  initial : astate;
  abstract : Devir.Arena.t -> astate;
      (** Manual abstraction from the control structure. *)
  classify : Vmm.Machine.request -> input;
  transitions : (astate * input * astate list) list;
      (** Allowed transitions: in state [s], input [i] may lead to any of
          the listed states.  Absent (s, i) pairs are illegal requests. *)
  invariants : (string * (Devir.Arena.t -> bool)) list;
      (** Named safety conditions on the concrete state, checked after
          every request. *)
}

type anomaly = {
  at_state : astate;
  input : input;
  detail : string;
}

type t

val attach : Vmm.Machine.t -> spec -> t
(** Add the monitor as an interposer layer of the device (protection
    mode: illegal requests halt the VM before execution; bad resulting
    states/invariants halt after). *)

val anomalies : t -> anomaly list
val drain_anomalies : t -> anomaly list
val resync : t -> unit
(** Re-read the abstract state from the device (after a resume). *)

val pp_anomaly : Format.formatter -> anomaly -> unit

(** {1 Hand-written device models}

    These cover the devices of the Nioh experiment referenced by the
    paper (FDC, SCSI, PCNet).  Writing them required exactly the kind of
    per-device manual effort the paper criticises; they are kept honest —
    every rule comes from the device's programming model, not from the
    exploits. *)

val fdc_spec : spec
val scsi_spec : spec
val pcnet_spec : spec

val spec_for : string -> spec option
