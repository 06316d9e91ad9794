(** Fleet-scale checker harness: thousands of protected VMs per process.

    {!Supervisor} runs full VMs — machine, guest RAM, workload, governor,
    remedy — which is the right fidelity for supervision semantics but
    caps fleet size at tens (each VM runs a guest workload and keeps the
    guest RAM it writes, twice with its checkpoint).  This harness
    isolates what actually scales with fleet size under the arena/cursor
    split: per VM it instantiates only a {e cell} — one
    {!Sedspec.Checker} (cursor + shadow state) over its device's shared
    immutable compiled arena — and drives every cell's full protection
    path (pre-execution walk, verdict, shadow commit) by replaying a
    benign request stream captured once per device.  Captures are
    reduced to their replay-stable core first: requests whose checks
    depend on device work the walk does not simulate (asynchronous ring
    processing, DMA completion) are state-faithful only on a live
    machine, so they are iteratively dropped until a multi-pass
    device-less replay is anomaly-free.

    Measured per configuration: interactions/s across the fleet, p50/p99
    per-tick latency, marginal bytes per VM (major-heap live-word delta
    across cell creation), minor-heap words allocated per steady-state
    tick and per walk ({!Gc.minor_words} deltas summed per domain), walk
    ns/node, and the single-flight build count — which must be at most
    one per (device, version) no matter the fleet size ([sc_shared]
    asserts physical arena identity across all cells). *)

type options = {
  vms : int;
      (** Cells, assigned round-robin over the five paper devices (fdc,
          ehci, pcnet, sdhci, scsi). *)
  ticks : int;  (** Timed stream replays per cell. *)
  seed : int64;
      (** Capture-stream workload seed.  Each device's stream is
          captured from 2 soak cases of 12 ops. *)
  jobs : int;  (** Runner domains; cells are partitioned into chunks. *)
}

type result = {
  sc_vms : int;
  sc_ticks : int;
  sc_interactions : int;  (** Timed-phase interactions, fleet-wide. *)
  sc_nodes_walked : int;  (** Timed-phase ES-CFG nodes walked. *)
  sc_anomalies : int;  (** Should be 0: the streams are benign. *)
  sc_builds : int;
      (** Spec builds this run triggered; <= one per (device, version). *)
  sc_shared : bool;
      (** Every cell's arena is physically ([==]) its device's one. *)
  sc_create_s : float;  (** Wall seconds to create all cells (serial). *)
  sc_wall_s : float;  (** Timed-phase wall seconds. *)
  sc_throughput_ips : float;  (** Interactions/s across the fleet. *)
  sc_walk_ns_per_node : float;
      (** Busy nanoseconds per walked node (sum of tick latencies over
          nodes; includes interposer dispatch). *)
  sc_p50_tick_ns : float;
  sc_p99_tick_ns : float;
  sc_bytes_per_vm : float;
      (** Marginal major-heap bytes per cell (live-word delta around
          creation, after [Gc.full_major] on both sides). *)
  sc_minor_words_per_tick : float;
  sc_minor_words_per_walk : float;
      (** Steady-state minor words per checker walk; the allocation
          budget guard in the bench and test suite watches this. *)
}

val run : options -> result
(** Raises [Invalid_argument] on non-positive [vms]/[ticks]. *)

val pp_result : Format.formatter -> result -> unit
