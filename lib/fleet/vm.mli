(** One protected machine inside its bulkhead.

    A [Vm.t] owns everything with mutable state — machine, checker,
    remedy supervisor, governor, PRNG, coverage accumulator — so fleet
    members share nothing but the read-only spec cache, and a whole VM
    lifecycle (build, serve, degrade, heal) can run on any domain.  The
    bulkhead guarantee is structural: {!create} and {!tick} never let an
    exception escape — a spec that cannot be built marks the VM failed,
    a workload crash is counted and contained — so one misbehaving guest
    can never halt or starve its siblings.

    Spec acquisition retries under {!Sedspec_util.Backoff} (seeded,
    deterministic): transient {!Metrics.Spec_cache} build failures and
    CRC-failing {!Sedspec.Persist} loads are retried, then fall back to
    a fresh pipeline rebuild outside the cache — a poisoned source never
    wedges the VM. *)

type spec_origin =
  | Trained  (** Build (or fetch) via the single-flight spec cache. *)
  | Persisted of (unit -> string)
      (** Fetch serialised spec text (e.g. from distribution storage);
          called once per load attempt, so a transient corruption can
          clear on retry.  Parsed with [Persist.of_string] — CRC and
          structural failures count as attempts. *)
  | Candidate of (unit -> Sedspec.Pipeline.built)
      (** Enforce a candidate spec build — the rollout ladder's canary
          rung.  Fetch failures retry like the other sources and fall
          back to the scratch trained rebuild, so a broken candidate
          degrades the canary to known-good behaviour rather than
          failing the VM.  Candidate VMs never claim a shared arena
          (their arena legitimately differs from their device's base
          arena). *)

type options = {
  device : string;  (** fdc, ehci, pcnet, sdhci or scsi. *)
  ops_per_tick : int;  (** Logical soak operations per tick. *)
  rare_prob : float;  (** Rare-command probability (FP source, §VII-B1). *)
  deadline : int option;  (** Watchdog step budget ({!Sedspec.Checker.set_deadline}). *)
  spec_origin : spec_origin;
  guard : bool;
      (** Attach the guest-side response validator (trained via
          {!Metrics.Spec_cache.guard_profile}) as a layer after the
          checker, feed its anomalies to the remedy supervisor and charge
          pending guard anomalies to the governor's burn. *)
  shadow : (unit -> Sedspec.Pipeline.built) option;
      (** Walk a candidate spec in lockstep with the enforced one: a
          second checker over the candidate sees every interaction
          (before and after seams — the walk must see the full request
          stream, since conditional checks couple requests through sync
          values), its verdict is compared with the
          enforced verdict and discarded — the enforced verdict always
          decides.  Agreement is scored per anomaly site (handler) into
          the report's [r_shadow] scoreboard; governor rung changes apply
          to both checkers so degradation cannot masquerade as
          disagreement.  The candidate's sync points are a sync-point
          layer of their own; every layer hears every value, and each
          checker pops only the values of blocks it walks.  Limitation:
          the inline indirect-call guard remains wired to the enforced
          checker only — candidate indirect-target deltas surface
          through the walk, not the inline seam.  A
          candidate build failure fails the VM's bulkhead (the rollout
          treats failed shadow VMs as a rejection signal).  The
          steady-state walk cost is bounded by the bench's
          shadow-overhead budget ([rollout.threshold.overhead_max],
          15%): per-VM setup (one extra checker over the already-lowered
          candidate arena) amortises across ticks.  Scoring allocates
          nothing: each handler has one record of mutable counters,
          found through the content-keyed table, or directly when the
          request's handler is physically the last one scored. *)
}

val default_options : device:string -> options
(** 12 ops/tick, rare probability 0.05, no deadline watchdog (a budget
    above the walk limit could never fire: {!Sedspec.Checker.set_deadline}),
    trained spec, no guard, no shadow.  Every VM runs the governor and a
    remedy supervisor with its circuit breaker, and acquires its spec
    under {!Sedspec_util.Backoff.retry} with 3 attempts. *)

type t

val create : index:int -> seed:int64 -> options -> t
(** Build the VM.  Never raises (unknown devices excepted — validate
    upstream): a failed spec acquisition after retries {e and} fallback
    yields a VM whose report carries the failure and whose {!tick}s are
    no-ops. *)

val machine : t -> Vmm.Machine.t option
(** [None] when the VM failed to build.  Exposed (with {!checker}) so a
    fault-injection campaign can arm faults on specific fleet members. *)

val checker : t -> Sedspec.Checker.t option

val arena : t -> Sedspec.Compile.t option
(** The compiled arena this VM's checker walks.  For cache-acquired
    specs this is the one shared immutable arena of the (device,
    version) — physically equal ([==]) across every VM and Runner
    domain; for fallback/persisted sources it is private. *)

val tick : t -> unit
(** One supervision period: run the benign workload (bulkhead-wrapped),
    account warnings/anomalies/overruns, feed the burn to the governor
    (applying any rung change to the checker config), then run the
    remedy supervisor's tick.  Appends one line to the verdict stream.
    What a VM keeps per tick is bounded: the stream's newest lines in a
    fixed ring, and looser counts only for ticks that have one. *)

type shadow_report = {
  sh_revision : int;  (** Candidate spec revision. *)
  sh_provenance : string;  (** Candidate provenance tag. *)
  sh_agree : int;  (** Verdict comparisons where both ranked equal. *)
  sh_stricter : int;  (** Candidate stricter (would have escalated). *)
  sh_looser : int;  (** Candidate looser (would have missed). *)
  sh_first_looser_tick : int option;
      (** Tick of the first looser verdict — the rollout's deterministic
          rollback-latency clock. *)
  sh_looser_ticks : (int * int) list;
      (** [(tick, looser count)] for each tick with a looser verdict,
          oldest first; every other tick had none.  The rollout slides
          its {!Governor.Budget} agreement window over these. *)
  sh_sites : (string * (int * int * int)) list;
      (** Per-handler (agree, stricter, looser), sorted by handler: one
          entry per handler name, and the columns sum to [sh_agree],
          [sh_stricter] and [sh_looser]. *)
}

type report = {
  r_vm : int;
  r_device : string;
  r_status : string;  (** ["ok"] or ["failed: <reason>"]. *)
  r_state : Governor.state;  (** Final governor rung. *)
  r_degrades : int;
  r_restores : int;
  r_burn : int;  (** Final window burn. *)
  r_interactions : int;  (** Checker-inspected interactions. *)
  r_anoms_param : int;
  r_anoms_indirect : int;
  r_anoms_cond : int;
  r_anoms_internal : int;
  r_internal_errors : int;
  r_deadline_overruns : int;
  r_crashes : int;  (** Workload exceptions the bulkhead contained. *)
  r_halt_ticks : int;  (** Ticks that ended with the machine halted. *)
  r_warns : int;
  r_rollbacks : int;
  r_breaker_tripped : bool;
  r_halted_final : bool;
  r_heals : int;
  r_build_attempts : int;
  r_build_fallback : bool;  (** Spec came from the fresh-rebuild fallback. *)
  r_backoff_delay : int;  (** Logical backoff units spent acquiring the spec. *)
  r_cov_nodes : int;
  r_cov_edges : int;
  r_guard : (int * int) option;
      (** [(drained_anomalies, internal_errors)] of the response
          validator; [None] when the guard was not enabled — reports and
          their JSON are unchanged for guard-less fleets. *)
  r_shadow : shadow_report option;
      (** The shadow-walk scoreboard; [None] when no candidate was
          shadowed — shadow-less reports (including their per-tick
          stream lines) keep their exact historical bytes. *)
  r_arena : Sedspec.Compile.t option;
      (** The shared arena, when the spec came from the cache ([None]
          for fallback rebuilds and persisted sources).  Lets the
          supervisor assert physical sharing across the whole fleet. *)
  r_stream : string list;
      (** The per-tick verdict/coverage stream's newest lines, oldest
          first: every line of a run of up to 64 ticks, the last 64 of a
          longer one. *)
  r_stream_lines : int;  (** Lines the stream ever had: one per tick served. *)
  r_stream_crc : int32;
      (** {!Sedspec_util.Crc.crc32} of every line of the stream, each
          followed by a newline.  With {!r_stream_lines} it lets the
          bulkhead isolation oracle compare whole streams, the lines the
          ring dropped included. *)
}

val report : t -> report
