(** Performance experiments (paper Figures 3, 4 and 5).

    Storage: an iozone-like sweep — read and write a fixed volume using a
    given record (block) size, with and without SEDSpec protection;
    normalized throughput is [t_base / t_protected] and normalized latency
    is [t_protected / t_base] per operation.  FDC's sweep is capped by its
    2.88 MB medium.

    Network: iperf-like streams over PCNet (TCP-like with reverse-path
    acks, UDP-like one-way; upstream = guest transmits, downstream = host
    injects) and ping round-trips.

    A side costs the wall-clock time of its device work plus its VM exits
    ({!Vmm.Machine.exits}) at {!exit_us} each: the KVM exit and QEMU
    dispatch dominate per-access cost on a real host, and without them no
    overhead percentage is meaningful (the bench ablates the price). *)

val exit_us : float
(** The price of one VM exit, in microseconds: 40. *)

type side = { wall_s : float; exits : int }

val seconds : exit_us:float -> side -> float
(** [wall_s] plus [exits] at [exit_us] microseconds each. *)

type storage_point = {
  block_bytes : int;
  base_s : float;       (** Unprotected {!seconds}. *)
  protected_s : float;
  norm_throughput : float;  (** base / protected (<= 1 is paper's plot). *)
  norm_latency : float;     (** protected / base. *)
}

val storage_devices : string list
(** fdc, ehci, sdhci, scsi — the paper's Figure 3/4 devices. *)

val storage_blocks : string -> int list
(** Block-size sweep per device (FDC capped at its medium). *)

val storage_sides :
  total_bytes:int -> device:string -> write:bool -> block:int -> side * side
(** Moving [total_bytes] (FDC at most 64 KiB) in [block]-byte records,
    unprotected and protected (default checker config). *)

val storage_sweep :
  ?total_bytes:int -> device:string -> write:bool -> unit -> storage_point list
(** {!storage_sides} at each block size (default 512 KiB). *)

type net_kind = Tcp_up | Tcp_down | Udp_up | Udp_down

val net_kind_to_string : net_kind -> string

type net_point = {
  kind : net_kind;
  base_mbps : float;
  protected_mbps : float;
  overhead_pct : float;
}

val net_sides : total_bytes:int -> net_kind -> side * side
(** One stream of [total_bytes] in 1460-byte frames, unprotected and
    protected. *)

val pcnet_bandwidth : ?total_bytes:int -> net_kind -> net_point
(** {!net_sides} (default 2 MiB). *)

val pcnet_ping : ?count:int -> unit -> float * float * float
(** (base ms, protected ms, overhead fraction) averaged over [count]
    round trips (default 400). *)
