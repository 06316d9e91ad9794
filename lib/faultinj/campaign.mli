(** The fault-injection campaign: every requested device × both working
    modes × both walk engines, [plans_per_combo] seeded plans each,
    driven by short benign soaks under a remedy supervisor with the
    circuit breaker armed.

    Two kinds share that driver and differ in the plan pool and in
    whether the guest-side validator runs:

    - {!Substrate} faults the seams the checker depends on but does not
      control — guest-memory reads, persisted specs and the walk itself
      ({!Plan.generate});
    - {!Hostile} is the mirror for the {e host->guest} direction:
      seeded, replayable corruptions of device responses — register
      read-returns, outbound DMA lengths, completion stores, IRQ storms —
      plus synthetic faults inside the guest-side validator itself
      ({!Plan.generate_hostile}).  Every combo adds the
      {!Guard.Validator} as a layer after the ES-Checker and feeds its
      anomalies to the remedy supervisor, so a hostile device trips the
      same rollback/breaker machinery as a guest-side exploit.

    Determinism contract (same as the experiment suite): per-combo seeds
    come from [Runner.map_seeded], so the report — including the JSON
    rendering — is bit-identical for any [jobs] value. *)

type kind = Substrate | Hostile

type options = {
  kind : kind;
  devices : string list;  (** Device names ([Workload.Samples.find]). *)
  plans_per_combo : int;
  cases_per_plan : int;  (** Soak cases run while a plan is armed. *)
  ops_per_case : int;
  min_injected : int;
      (** Floor on total fault firings for the run to pass (0 for
          {!Substrate}). *)
  seed : int64;
  jobs : int;
}

type combo_report = {
  device : string;
  mode : Sedspec.Checker.mode;
  engine : Sedspec.Checker.engine;
  injected : int;
      (** Fault firings (corrupted reads and responses, walk and validator
          hooks, spec plans). *)
  contained : int;
      (** Exceptions the checker or the validator converted to
          [Internal_error] anomalies. *)
  escaped : int;  (** Exceptions that crossed a bulkhead — must be 0. *)
  fail_open : int;
      (** Fail-closed [Walk_raise]/[Guard_raise] plans whose fault fired
          yet produced neither a containment in the layer they target
          (checker/validator) nor an escape — must be 0. *)
  guard_anomalies : int;  (** Validator anomalies fed to the remedy. *)
  halts : int;  (** Ticks that found the machine halted (degraded, closed). *)
  warns : int;  (** Warnings recorded (degraded, open). *)
  rollbacks : int;
  breaker_trips : int;
  heals : int;  (** Shadow resyncs by [Checker.heal] and [Validator.heal]. *)
  spec_detected : int;  (** Corrupted spec loads rejected with [Error]. *)
  spec_benign : int;  (** Corruption beyond the covered bytes: identical spec. *)
  spec_silent : int;  (** Loads that returned a different spec — must be 0. *)
}

type report = { options : options; combos : combo_report list }

val run : options -> report

val passed : report -> bool
(** No escaped exception, no silent fail-open, no silently corrupted
    spec load, and at least [min_injected] fault firings. *)

val totals : report -> combo_report
(** Column sums (the [device]/[mode]/[engine] fields are meaningless). *)

val report_to_json : report -> Sedspec_util.Json.t
(** Deterministic rendering: no timestamps, no wall-clock, field order
    fixed — byte-identical across runs and [jobs] values.  Each kind
    renders only its own counters: the [spec_*] ones for {!Substrate},
    [min_injected] and [guard_anomalies] for {!Hostile}. *)

val pp_report : Format.formatter -> report -> unit
(** The same counters as {!report_to_json}, one table row per combo. *)

(** {1 Fleet bulkhead isolation}

    Inject machine-site faults into a deterministic subset of a
    {!Fleet.Supervisor} fleet and prove the bulkheads hold: every
    {e clean} VM's report — verdict stream, anomaly counts, coverage —
    must be byte-identical to a fault-free baseline run, and the faulted
    run itself must be bit-identical across [jobs]. *)

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

val isolation : kind -> fleet_options -> fleet_report
(** Three fleet runs (clean baseline, faulted, faulted serial when
    [fl_jobs <> 1]) under identical options and seed; faults are armed
    through {!Fleet.Supervisor.run}'s [arm] seam on the faulty subset
    only, with sites drawn from a stream keyed by (seed, vm).
    {!Substrate} arms guest-memory corruption/short reads and synthetic
    walk exceptions/latency; {!Hostile} enables the guard on every VM and
    arms the four response corruptions, so a hostile device model must
    trip its own bulkhead without perturbing one byte of any clean
    neighbour's report. *)

val fleet_passed : fleet_report -> bool
(** Faults fired, no clean-VM divergence, no jobs divergence. *)

val fleet_report_to_json : fleet_report -> Sedspec_util.Json.t
val pp_fleet_report : Format.formatter -> fleet_report -> unit
