(** The machine model: KVM/QEMU's dispatch role.

    Guest I/O (PMIO/MMIO) is routed to the registered device whose range
    covers the address, exactly where KVM forwards an exit to QEMU's device
    emulation.  {e Interposers} — SEDSpec's ES-Checker proxy, the guest-side
    validator, recorders — see every request before the device runs and can
    veto it; they also see the execution outcome afterwards (for sync-point
    resolution and post-hoc verdicts).  A device carries an ordered list of
    interposer layers ({!add_interposer}): every layer sees every request in
    the order the layers were added, and their verdicts merge to the
    strongest ({!strength}), the earlier layer winning between equals.  A
    [Halt] from any [before] blocks the device and skips every [after].

    Devices can also receive out-of-band input ({!inject}) for paths that
    do not originate from a CPU exit, such as a network card receiving a
    frame from the host side. *)

type request = {
  device : string;
  handler : string;
  params : (string * int64) list;
}

type verdict =
  | Allow
  | Warn of string  (** Record a warning; execution proceeds / stands. *)
  | Halt of string  (** Stop the device and the virtual machine. *)

type interposer = {
  before : request -> verdict;
  after : request -> Interp.Event.outcome -> verdict;
}

val strength : verdict -> int
(** The order of verdict strength: [Allow] 0, [Warn] 1, [Halt] 2.  Layers
    merge by it, and a shadow walk scores its verdicts by it. *)

type io_result =
  | Io_ok of int64 option  (** Response data for reads. *)
  | Io_blocked of string   (** Interposer halted before execution. *)
  | Io_fault of Interp.Event.trap
  | Io_no_device
  | Io_vm_halted  (** The VM was already halted by a previous verdict. *)

type device_binding = {
  program : Devir.Program.t;
  arena : Devir.Arena.t;
  pmio : (int64 * int) list;       (** [base, len] port ranges. *)
  pmio_read : string option;       (** Handler for port reads. *)
  pmio_write : string option;
  mmio : (int64 * int) list;
  mmio_read : string option;
  mmio_write : string option;
}

type t

val create : ?ram_size:int -> unit -> t
(** Default RAM: 16 MiB. *)

val ram : t -> Guest_mem.t
val irq : t -> Irq.t

val exits : t -> int
(** VM exits since {!create}: one per access or {!inject} that reaches a
    device of a running VM, even one an interposer halts; none for
    [Io_vm_halted] or [Io_no_device].  The perf experiments price each
    ([Metrics.Perf.exit_us]) as the KVM exit plus QEMU dispatch. *)

val attach : t -> device_binding -> unit
(** Registers the device, creates its interpreter (wired to machine RAM and
    the IRQ controller) and registers its IRQ line under the program
    name.  Raises [Invalid_argument] on overlapping I/O ranges or duplicate
    device names. *)

val add_interposer : t -> string -> interposer -> unit -> unit
(** Add a layer after the device's existing ones.  Returns the function
    that removes exactly that layer; calling it again does nothing. *)

val set_interposer : t -> string -> interposer -> unit
(** Replace every layer of the device with this one. *)

val interposer_of : t -> string -> interposer option
(** The device's layers composed into one interposer ([None] without
    layers; the installed value itself when there is one layer).  Together
    with {!set_interposer} it lets a tracer wrap the whole stack and put it
    back. *)

val interp_of : t -> string -> Interp.t
(** The device's interpreter, e.g. to install observation points or trace
    hooks during SEDSpec's data-collection phase. *)

val device_names : t -> string list

val io_read : t -> port:int64 -> size:int -> io_result
val io_write : t -> port:int64 -> size:int -> data:int64 -> io_result
val mmio_read : t -> addr:int64 -> size:int -> io_result
val mmio_write : t -> addr:int64 -> size:int -> data:int64 -> io_result

val inject :
  t -> device:string -> handler:string -> params:(string * int64) list ->
  io_result
(** Deliver an out-of-band request (network receive, timer callback). *)

val halted : t -> bool
(** The VM was halted by an interposer verdict. *)

val halt_reason : t -> string option

val resume : t -> unit
(** Clear the halted flag (experiments restart the "VM" between cases). *)

val warnings : t -> string list
(** Interposer warnings, oldest first. *)

val clear_warnings : t -> unit

val last_traps : t -> (string * Interp.Event.trap) list
(** Device faults observed since the last [clear_traps], newest first. *)

val clear_traps : t -> unit

val reboot : t -> device:string -> unit
(** Return a recycled machine to boot state for [device]: resume it,
    clear warnings and traps, zero RAM and drop its read fault, reset the
    device's arena and response fault, lower its IRQ line and clear the
    IRQ counts.  Interposers stay installed; their own state (a checker's
    shadow, say) is the caller's to reset. *)
