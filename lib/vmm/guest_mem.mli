(** Guest physical memory.

    A flat RAM image the emulated devices DMA into and out of, and that the
    guest-side drivers in the workload library use to stage descriptors,
    ring buffers and data pages — the same role guest RAM plays between a
    real driver and QEMU. *)

type t

val create : int -> t
(** [create size] allocates [size] bytes of zeroed RAM. *)

val size : t -> int

val read_byte : t -> int64 -> int
(** Out-of-range reads return 0 (like a missing physical page). *)

val write_byte : t -> int64 -> int -> unit
(** Out-of-range writes are dropped. *)

val set_write_hook : t -> (int64 -> int -> unit) option -> unit
(** Observe every in-range byte written (all write paths funnel through
    {!write_byte}).  Used by the fuzzer's input recorder to capture the
    guest-side memory a workload stages; [None] removes the hook. *)

val set_read_fault : t -> (int64 -> int -> int) option -> unit
(** Interpose on every byte read (all read paths funnel through
    {!read_byte}): [f addr byte] returns the byte the reader sees,
    truncated to 8 bits.  Used by the fault-injection harness to model
    corrupted or short DMA data.  The function must be a pure function
    of [(addr, byte)] — the checker's shadow walk and the device itself
    read the same addresses and must observe the same values, in either
    checker engine.  [None] removes the fault. *)

val read : t -> int64 -> Devir.Width.t -> int64
(** Little-endian scalar read. *)

val write : t -> int64 -> Devir.Width.t -> int64 -> unit

val blit_in : t -> int64 -> bytes -> unit
(** Copy bytes into RAM at an address. *)

val blit_out : t -> int64 -> int -> bytes
(** Copy [len] bytes out of RAM. *)

val fill : t -> int64 -> int -> int -> unit
(** [fill t addr len byte]. *)

val clear : t -> unit
(** Zero the whole image (host-side reset; the write hook does not fire).
    Marks every page dirty. *)

val snapshot : t -> bytes
(** A fresh copy of the whole RAM image. *)

(** {2 Checkpoint and rollback}

    RAM has one checkpoint image.  Every in-range write marks its 4 KiB
    page dirty; {!checkpoint} and {!rollback} copy only the dirty pages,
    then mark every page clean.  Both are exact for any write sequence: a
    clean page still equals its saved copy.  The image is allocated at the
    first {!checkpoint}, so RAM nobody checkpoints costs nothing extra. *)

val checkpoint : t -> unit
(** Make the checkpoint image equal to RAM.  Costs one page copy per page
    dirtied since the last {!checkpoint} or {!rollback} (all of them the
    first time, and after {!clear}). *)

val rollback : t -> unit
(** Make RAM equal to the checkpoint image (host-side restore; the write
    hook does not fire).  Costs one page copy per dirty page.  Raises
    [Invalid_argument] if no checkpoint was ever taken. *)

val access : t -> Interp.guest
(** The interpreter-facing access record. *)
