(** Benign workload generation (paper §IV-C training samples and §VII-B1
    soak interactions).

    For every device there is a {e trainer} — the legitimate-sample corpus
    SEDSpec builds its execution specification from, varying the
    paper-listed dimensions (storage parameters, network mode/MTU/rings,
    transfer shapes) — and a {e soak case} generator that replays the same
    operation mix under one of the three interaction modes, occasionally
    (with [rare_prob]) issuing a legitimate-but-rare maintenance command
    that training never covered: the paper's false-positive source.

    All randomness is drawn from an explicit PRNG so runs are
    reproducible. *)

type interaction_mode = Sequential | Random | Random_delay

val mode_to_string : interaction_mode -> string

module type DEVICE_WORKLOAD = sig
  val device_name : string

  val paper_version : Devices.Qemu_version.t
  (** The QEMU version the paper's case studies target for this device. *)

  val device : Devices.Qemu_version.t -> Devices.Device.t
  (** The device model at the given version. *)

  val make_machine : Devices.Qemu_version.t -> Vmm.Machine.t
  (** Fresh machine with this device attached at the given version. *)

  val trainer : cases:int -> Sedspec.Pipeline.trainer

  val soak_case :
    mode:interaction_mode ->
    rng:Sedspec_util.Prng.t ->
    rare_prob:float ->
    ops:int ->
    Vmm.Machine.t ->
    unit
  (** Run one benign test case of roughly [ops] logical operations. *)

  val ops_per_hour : interaction_mode -> int
  (** Logical operations one simulated hour of this workload performs
      (random-with-delay is slower, as in the paper). *)
end

module Fdc_w : DEVICE_WORKLOAD
module Ehci_w : DEVICE_WORKLOAD
module Pcnet_w : DEVICE_WORKLOAD
module Sdhci_w : DEVICE_WORKLOAD
module Scsi_w : DEVICE_WORKLOAD

val all : (module DEVICE_WORKLOAD) list
(** The five devices of the paper's Table III, in its order, then the
    virtio ring. *)

val find : string -> (module DEVICE_WORKLOAD)
(** Lookup by device name; raises [Not_found]. *)

val find_opt : string -> (module DEVICE_WORKLOAD) option
