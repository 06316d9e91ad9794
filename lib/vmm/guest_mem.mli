(** Guest physical memory.

    The RAM the emulated devices DMA into and out of, and that the
    guest-side drivers in the workload library use to stage descriptors,
    ring buffers and data pages — the same role guest RAM plays between a
    real driver and QEMU.  RAM is an array of 4 KiB pages that a
    hypervisor would back lazily: a page nobody wrote reads as zero and
    costs no memory, and its first write allocates it. *)

type t

val create : int -> t
(** [create size] makes [size] bytes of RAM that read as zero.  It
    allocates the page table (one word per 4 KiB page) and the dirty map
    (one byte per page), no page.  Raises [Invalid_argument] if [size] is
    negative. *)

val size : t -> int

(** Addresses are unsigned 64-bit: RAM is [0 .. size t - 1], and an
    address with bit 63 set is out of range.  A multi-byte access covers
    the bytes at [addr], [addr + 1], ... (wrapping past [Int64.max_int])
    and touches only those inside RAM. *)

val read_byte : t -> int64 -> int
(** Out-of-range reads return 0 (like a missing physical page). *)

val write_byte : t -> int64 -> int -> unit
(** Out-of-range writes are dropped. *)

(** {2 Interposition}

    {!read}, {!write}, {!blit_in}, {!blit_out} and {!fill} move a range
    that lies wholly inside RAM with one [Bytes] operation per page it
    touches, unless something interposes on it: an installed hook forces
    the per-byte path ({!read_byte} and {!write_byte} for each byte), so
    the hook sees every byte. *)

val set_write_hook : t -> (int64 -> int -> unit) option -> unit
(** Observe every in-range byte written, in address order within one
    call; an installed hook forces the per-byte path on every write.
    Used by the fuzzer's input recorder to capture the guest-side memory
    a workload stages; [None] removes the hook. *)

val set_read_fault : t -> (int64 -> int -> int) option -> unit
(** Interpose on every byte read: [f addr byte] returns the byte the
    reader sees, truncated to 8 bits.  An installed fault forces the
    per-byte path on every read.  Used by the fault-injection harness to
    model corrupted or short DMA data.  The function must be a pure
    function of [(addr, byte)] — the checker's shadow walk and the device
    itself read the same addresses and must observe the same values, in
    either checker engine.  [None] removes the fault. *)

val read : t -> int64 -> Devir.Width.t -> int64
(** Little-endian scalar read. *)

val write : t -> int64 -> Devir.Width.t -> int64 -> unit

val blit_in : t -> int64 -> bytes -> unit
(** Copy bytes into RAM at an address. *)

val blit_out : t -> int64 -> int -> bytes
(** Copy [len] bytes out of RAM.  Raises [Invalid_argument] if [len] is
    negative. *)

val fill : t -> int64 -> int -> int -> unit
(** [fill t addr len byte]; nothing if [len <= 0]. *)

val clear : t -> unit
(** Zero all of RAM (host-side reset; the write hook does not fire) by
    dropping every page: it costs one store per page, and RAM then holds
    no page.  Marks every page dirty. *)

val snapshot : t -> bytes
(** A fresh flat copy of all of RAM, [size t] bytes. *)

(** {2 Checkpoint and rollback}

    RAM has one checkpoint image, a page array like RAM's own: it holds
    a copy of each page that was written when it was saved, and shares
    the zero page for the rest.  Every in-range write marks the 4 KiB
    pages it touches dirty; {!checkpoint} and {!rollback} move only the
    dirty pages, then mark every page clean.  Both are exact for any
    write sequence: a clean page still equals its saved copy.  The image
    is allocated at the first {!checkpoint}, so RAM nobody checkpoints
    costs nothing extra. *)

val checkpoint : t -> unit
(** Make the checkpoint image equal to RAM.  Scans the dirty map eight
    pages to a word, then costs one page copy per written page dirtied
    since the last {!checkpoint} or {!rollback}; a dirty page that reads
    as zero (never written, or cleared) costs one store.  Every page is
    dirty the first time and after {!clear}, so the first checkpoint
    allocates the page table and copies only the pages written so far. *)

val rollback : t -> unit
(** Make RAM equal to the checkpoint image (host-side restore; the write
    hook does not fire).  Costs one page copy per dirty page the image
    holds, and one store per dirty page it shares as zero, which drops
    RAM's page.  Raises [Invalid_argument] if no checkpoint was ever
    taken. *)

val dirty_pages : t -> int
(** The pages marked dirty: what the next {!checkpoint} or {!rollback}
    moves.  0 right after either. *)

val access : t -> Interp.guest
(** The interpreter-facing access record. *)
