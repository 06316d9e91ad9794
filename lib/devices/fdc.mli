(** Floppy disk controller (82078-style), modelled after QEMU's [fdc.c].

    Port-mapped at [0x3F0..0x3F7]: DOR (drive control/reset), TDR, MSR/DSR,
    the data FIFO at [0x3F5] and DIR.  Commands are issued by writing the
    command byte and its parameters to the FIFO in the command phase;
    READ/WRITE run a non-DMA execution phase where the guest moves 512-byte
    sectors through the FIFO; most commands finish with a result phase read
    back through the FIFO.

    Vulnerability (version-gated):
    - {b CVE-2015-3456 "Venom"} (fixed in 2.3.1): the DRIVE SPECIFICATION
      command (0x8E) accumulates parameter bytes into [fifo\[data_pos++\]]
      until a byte with the high bit arrives, without bounding [data_pos] —
      a guest streaming low-bit bytes writes past the 512-byte FIFO. *)

val name : string
(** ["fdc"]. *)

val io_base : int64
(** Port base [0x3F0]. *)

val irq_cb : int64
(** Callback value stored in the [irq] function pointer. *)

val fifo_size : int
(** 512. *)

val venom_fixed_in : Qemu_version.t
(** 2.3.1. *)

val layout : Devir.Layout.t

val program : version:Qemu_version.t -> Devir.Program.t

val device : version:Qemu_version.t -> Device.t
