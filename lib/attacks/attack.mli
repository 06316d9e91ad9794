(** CVE proof-of-concept catalogue (paper §VII-B2 case studies).

    Every attack replays the register-level I/O stream of a published
    exploit against the version-gated vulnerable device model.  [setup]
    puts the device into the benign state the exploit assumes (all setup
    traffic stays on trained paths); [run] is the malicious stream;
    [ground_check] inspects the machine afterwards for exploit-specific
    effects the traps/hooks cannot see (e.g. a double completion).

    [expected] is the paper's Table III check-strategy matrix for the CVE;
    [detectable] is false only for the CVE-2016-1568 analog, the paper's
    acknowledged miss. *)

type t = {
  cve : string;
  device : string;
  qemu_version : Devices.Qemu_version.t;
  fixed_in : Devices.Qemu_version.t;
      (** First QEMU version whose device model carries the fix — the
          patched side of the CVE's version pair (matches the device
          module's [*_fixed_in] gate). *)
  expected : Sedspec.Checker.strategy list;
  detectable : bool;
  description : string;
  setup : Vmm.Machine.t -> unit;
  run : Vmm.Machine.t -> unit;
  ground_check : Vmm.Machine.t -> string list;
}

val run_stream : Vmm.Machine.t -> t -> unit
(** Run the malicious stream.  A stream stops with [Exit] where an access
    it needs is vetoed; [run_stream] returns there. *)

val version_pair : t -> Devices.Qemu_version.t * Devices.Qemu_version.t
(** [(vulnerable, patched)] — the adjacent device versions the
    cross-version deviation locator replays against. *)

type effects = {
  oob_writes : int;
  oob_reads : int;
  traps : (string * Interp.Event.trap) list;
  extra : string list;  (** From [ground_check]. *)
}

val succeeded : effects -> bool
(** The exploit had a concrete effect: memory corruption, a crash/hang, a
    blocked hijack, or a device-specific effect. *)

val observe_effects : Vmm.Machine.t -> device:string -> (unit -> unit) -> t -> effects
(** Run a thunk while counting OOB events on the device and collecting
    traps, then apply the attack's ground check. *)

val all : t list
(** The Table III case studies plus the CVE-2016-1568 miss (paper's
    order), the virtio-ring CVE-2019-14835 analog, and two
    locator-grown entries ([GROWN-*]): minimized deviation witnesses the
    cross-version locator bred from the catalogue streams, promoted to
    first-class regressions. *)

val find : string -> t
(** Lookup by CVE id; raises [Not_found]. *)

val pp_effects : Format.formatter -> effects -> unit
