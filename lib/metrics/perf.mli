(** Performance experiments (paper Figures 3, 4 and 5).

    Storage: an iozone-like sweep — read and write a fixed volume using a
    given record (block) size, with and without SEDSpec protection;
    normalized throughput is [t_base / t_protected] and normalized latency
    is [t_protected / t_base] per operation.  FDC's sweep is capped by its
    2.88 MB medium.

    Network: iperf-like streams over PCNet (TCP-like with reverse-path
    acks, UDP-like one-way; upstream = guest transmits, downstream = host
    injects) and ping round-trips.

    The machines run with the default simulated VM-exit cost — the
    dominant per-access cost on real hosts, without which no overhead
    percentage is meaningful (the benches ablate it). *)

type storage_point = {
  block_bytes : int;
  base_s : float;       (** Unprotected wall time. *)
  protected_s : float;
  norm_throughput : float;  (** base / protected (<= 1 is paper's plot). *)
  norm_latency : float;     (** protected / base. *)
}

val storage_devices : string list
(** fdc, ehci, sdhci, scsi — the paper's Figure 3/4 devices. *)

val storage_blocks : string -> int list
(** Block-size sweep per device (FDC capped at its medium). *)

val storage_sweep :
  ?total_bytes:int -> ?vmexit_cost:int -> device:string -> write:bool ->
  unit -> storage_point list
(** Time moving [total_bytes] (default 512 KiB; FDC at most 64 KiB) at
    each block size, protected (default checker config) vs. unprotected. *)

type net_kind = Tcp_up | Tcp_down | Udp_up | Udp_down

val net_kind_to_string : net_kind -> string

type net_point = {
  kind : net_kind;
  base_mbps : float;
  protected_mbps : float;
  overhead_pct : float;
}

val pcnet_bandwidth :
  ?total_bytes:int -> ?vmexit_cost:int -> net_kind -> net_point

val pcnet_ping :
  ?count:int -> ?vmexit_cost:int -> unit -> float * float * float
(** (base ms, protected ms, overhead fraction) averaged over [count]
    round trips (default 400). *)
