(** Fuzzer inputs: recorded or synthesised I/O interaction sequences.

    An input is the guest's half of a device conversation — the requests a
    driver issues (handler + parameters, the form {!Vmm.Machine} dispatches)
    interleaved with the guest-memory bytes it stages for DMA.  Seeds are
    recorded from the benign workload library and the attack catalogue;
    mutants are derived from them. *)

(** Scheduled faultinj effects.  Guest faults stay armed until replaced
    or cleared; walk faults are one-shot and fire at the top of the
    checker's next walk, before engine dispatch, so both engines observe
    the identical effect and the differential oracle survives. *)
type fault =
  | F_guest_xor of int64  (** Corrupt reads ({!Faultinj.Inject.corrupt_byte} mask). *)
  | F_guest_short of int64  (** Reads at/above the limit return 0. *)
  | F_guest_clear
  | F_walk_raise
  | F_walk_delay of int  (** {!Faultinj.Inject.burn} iterations. *)
  | F_resp_read of int64
      (** Mangle register read-return values at the host->guest seam
          ({!Faultinj.Inject.corrupt_value} mask); stays armed until
          replaced or cleared, like guest faults. *)
  | F_resp_store of int64  (** Mangle completion-store values. *)
  | F_resp_dma of int
      (** Add the delta to outbound (device->guest) DMA lengths. *)
  | F_resp_irq of int  (** Extra raise/lower edges per IRQ raise. *)
  | F_resp_clear
      (** Response faults serialize under the ["rf"] line tag — the
          ["r"] tag already names request steps. *)

type step =
  | Req of { handler : string; params : (string * int64) list }
  | Guest_write of { addr : int64; data : string }
  | Fault of fault

type origin = Benign | Attack of string  (** CVE id. *) | Mutant

type t = {
  device : string;
  version : Devices.Qemu_version.t;
  origin : origin;
  steps : step array;
}

val origin_to_string : origin -> string

val record : Vmm.Machine.t -> device:string -> (unit -> unit) -> step array
(** [record m ~device f] runs [f] while capturing the device's top-level
    requests and the driver-side guest-memory writes between them.
    Adds (and removes) a recording interposer layer and the RAM write
    hook. *)

val record_benign :
  (module Workload.Samples.DEVICE_WORKLOAD) -> (Vmm.Machine.t -> unit) -> t
(** Record one benign driver scenario against a fresh machine at the
    workload's paper version. *)

val seed_corpus : device:string -> t list
(** Deterministic seeds for one device: a training case, two short benign
    soaks, and every catalogued attack against the device (recorded at the
    attack's QEMU version).  Raises [Not_found] for an unknown device. *)

(** {2 Persistence} — a line-oriented text format that round-trips the
    full unsigned 64-bit range and is byte-stable across runs. *)

val to_string : t -> string
val corpus_to_string : t list -> string
val corpus_of_string : string -> (t list, string) result
val save_corpus : string -> t list -> unit
(** Atomic ({!Sedspec_util.Atomic_file.write}): a failed write leaves
    neither a truncated corpus nor a temp file behind. *)

val load_corpus : string -> (t list, string) result
