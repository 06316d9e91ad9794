(** The fault-injection campaign: every requested device × both working
    modes × both walk engines, [plans_per_combo] seeded plans each,
    driven by short benign soaks under a remedy supervisor with the
    circuit breaker armed.

    Determinism contract (same as the experiment suite): per-combo seeds
    come from [Runner.map_seeded], so the report — including the JSON
    rendering — is bit-identical for any [jobs] value. *)

type options = {
  devices : string list;  (** Device names ([Workload.Samples.find]). *)
  plans_per_combo : int;
  cases_per_plan : int;  (** Soak cases run while a plan is armed. *)
  ops_per_case : int;
  seed : int64;
  jobs : int;
}

type combo_report = {
  device : string;
  mode : Sedspec.Checker.mode;
  engine : Sedspec.Checker.engine;
  injected : int;  (** Fault firings (corrupted reads, walk hooks, spec plans). *)
  contained : int;  (** Exceptions converted to [Internal_error] anomalies. *)
  escaped : int;  (** Exceptions that crossed the interposer — must be 0. *)
  fail_open : int;
      (** Fail-closed walk-raise plans whose fault fired yet produced
          neither a contained anomaly nor an escape — must be 0. *)
  halts : int;  (** Ticks that found the machine halted (degraded, closed). *)
  warns : int;  (** Warnings recorded (degraded, open). *)
  rollbacks : int;
  breaker_trips : int;
  heals : int;  (** Shadow resyncs performed by [Checker.heal]. *)
  spec_detected : int;  (** Corrupted spec loads rejected with [Error]. *)
  spec_benign : int;  (** Corruption beyond the covered bytes: identical spec. *)
  spec_silent : int;  (** Loads that returned a different spec — must be 0. *)
}

type report = { options : options; combos : combo_report list }

val run : options -> report

val passed : report -> bool
(** No escaped exception, no silent fail-open, no silently corrupted
    spec load, anywhere. *)

val totals : report -> combo_report
(** Column sums (the [device]/[mode]/[engine] fields are meaningless). *)

val report_to_json : report -> Sedspec_util.Json.t
(** Deterministic rendering: no timestamps, no wall-clock, field order
    fixed — byte-identical across runs and [jobs] values. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Fleet bulkhead isolation}

    Inject machine-site faults (guest-memory corruption/short reads,
    synthetic walk exceptions and latency spikes) into a deterministic
    subset of a {!Fleet.Supervisor} fleet and prove the bulkheads hold:
    every {e clean} VM's report — verdict stream, anomaly counts,
    coverage — must be byte-identical to a fault-free baseline run, and
    the faulted run itself must be bit-identical across [jobs]. *)

type fleet_options = {
  fl_vms : int;
  fl_faulty : int;  (** Faulty members, spread evenly over the fleet. *)
  fl_ticks : int;
  fl_seed : int64;
  fl_jobs : int;
  fl_devices : string list;
}

type fleet_report = {
  fl_options : fleet_options;
  fl_faulty_set : int list;  (** VM indices that carried a fault. *)
  fl_sites : (int * string) list;  (** (vm, armed fault site). *)
  fl_fired : int;  (** Total fault firings — must be > 0. *)
  fl_clean_divergent : int list;
      (** Clean VMs whose full report differs from the baseline run —
          must be empty (zero cross-bulkhead interference). *)
  fl_jobs_divergence : bool;
      (** Faulted run at [jobs] vs [jobs = 1] produced different JSON —
          must be [false]. *)
  fl_baseline : Fleet.Supervisor.report;
  fl_faulted : Fleet.Supervisor.report;
}

val fleet_isolation : fleet_options -> fleet_report
(** Three fleet runs (clean baseline, faulted, faulted serial when
    [fl_jobs <> 1]) under identical options and seed; faults are armed
    through {!Fleet.Supervisor.run}'s [arm] seam on the faulty subset
    only, with sites drawn from a stream keyed by (seed, vm). *)

val fleet_passed : fleet_report -> bool
(** Faults fired, no clean-VM divergence, no jobs divergence. *)

val fleet_report_to_json : fleet_report -> Sedspec_util.Json.t
val pp_fleet_report : Format.formatter -> fleet_report -> unit

(** {1 Hostile-device campaign}

    The mirror of the substrate campaign for the {e host->guest}
    direction: seeded, replayable corruptions of device responses —
    register read-returns, outbound DMA lengths, completion stores, IRQ
    storms — plus synthetic faults inside the guest-side validator
    itself.  Every combo runs a protected machine with the
    {!Guard.Validator} chained in front of the ES-Checker and a remedy
    supervisor consuming the validator's anomalies, so a hostile device
    trips the same rollback/breaker machinery as a guest-side exploit.

    Same determinism contract as {!run}: per-combo seeds come from
    [Runner.map_seeded], so the report and its JSON are byte-identical
    for any [h_jobs]. *)

type hostile_options = {
  h_devices : string list;
  h_plans_per_combo : int;
  h_cases_per_plan : int;
  h_ops_per_case : int;
  h_min_injected : int;
      (** Floor on total corruption firings for the run to pass. *)
  h_seed : int64;
  h_jobs : int;
}

type hostile_combo_report = {
  hc_device : string;
  hc_mode : Sedspec.Checker.mode;
  hc_engine : Sedspec.Checker.engine;
  hc_injected : int;  (** Response corruptions the guest actually saw. *)
  hc_contained : int;  (** Checker + validator internal containments. *)
  hc_escaped : int;  (** Exceptions that crossed a bulkhead — must be 0. *)
  hc_fail_open : int;
      (** Fail-closed [Guard_raise] plans whose fault fired yet produced
          neither a contained anomaly nor an escape — must be 0. *)
  hc_guard_anoms : int;  (** Validator anomalies fed to the remedy. *)
  hc_halts : int;
  hc_warns : int;
  hc_rollbacks : int;
  hc_breaker_trips : int;
  hc_heals : int;
}

type hostile_report = {
  h_options : hostile_options;
  h_combos : hostile_combo_report list;
}

val run_hostile : hostile_options -> hostile_report

val hostile_passed : hostile_report -> bool
(** No escape, no silent fail-open, and at least [h_min_injected]
    corruption firings. *)

val hostile_totals : hostile_report -> hostile_combo_report
val hostile_report_to_json : hostile_report -> Sedspec_util.Json.t
val pp_hostile_report : Format.formatter -> hostile_report -> unit

val hostile_isolation : fleet_options -> fleet_report
(** {!fleet_isolation} with the guard enabled on every VM and
    response-direction corruption sites armed on the faulty subset: a
    hostile device model must trip its own bulkhead without perturbing
    one byte of any clean neighbour's report. *)
