(** Online spec evolution: the candidate rollout ladder.

    A candidate specification (for example one retrained on a newer corpus)
    climbs three rungs before it may replace the enforced base:

    {v Shadow  ->  Canary  ->  Promoted v}

    - {b Shadow}: a [shadow_vms]-strong subset of the fleet enforces the
      base and walks the candidate in lockstep ({!Vm.options.shadow})
      while the rest serve untouched — the subset is the shadow-overhead
      budget, capping evidence collection at [shadow_vms/vms] of one
      VM's lockstep walk fleet-wide (the bench's
      [rollout.threshold.overhead_max] asserts the resulting wall-clock
      cost stays under 15%); verdict agreement is scored per anomaly
      site and an 8-tick {!Governor.Budget} window slides over the
      fleet's per-tick looser counts.  The phase passes with an
      agreement ratio of at least 0.98 and no looser verdict in any
      window;
    - {b Canary}: a subset of the fleet enforces the candidate
      ({!Vm.spec_origin.Candidate}) while the rest keep shadow-scoring;
      each canary VM is A/B-paired with a same-seed twin enforcing the
      base, and any canary doing worse than its twin (failure, more halt
      ticks, a breaker trip, more parameter anomalies, crashes or
      degrades) or a looser verdict demotes immediately;
    - {b Promoted}: the candidate revision becomes the pinned revision.

    {b Safety gate}: at {e every} rung the candidate is replayed against
    the device's attack catalogue — rebuilt at each CVE's vulnerable
    version, in both walk engines and both working modes.  A candidate
    that fails to detect (or, in protection mode, block) any catalogued
    CVE is demoted on the spot: rolled back to the pinned base revision
    and {e latched} — like the Remedy circuit breaker, a candidate
    demoted for a safety miss cannot re-enter the ladder for the life of
    the process ({!reset_latches} exists for harnesses).

    Determinism: phases seed VMs exactly like {!Supervisor.run}, so the
    whole {!outcome} (and {!outcome_to_json}) is bit-identical for any
    [jobs] setting. *)

type recipe = {
  rc_name : string;  (** Latch key, e.g. ["retrained:48"]. *)
  rc_build : Devices.Qemu_version.t -> Sedspec.Pipeline.built;
      (** Build the candidate at a version — the catalogue gate rebuilds
          at each CVE's vulnerable version.  Memoised per {!run}. *)
}

val retrained :
  (module Workload.Samples.DEVICE_WORKLOAD) -> cases:int -> recipe
(** The {!Metrics.Spec_cache.built_retrained} candidate. *)

type rung = Shadow | Canary | Promoted | Rolled_back

val rung_to_string : rung -> string

type config = {
  device : string;
  vms : int;  (** Fleet size per phase (>= 1). *)
  canary_vms : int;  (** Candidate-enforcing subset (1 <= n <= vms). *)
  shadow_vms : int;
      (** Shadow-walking subset (1 <= n <= vms) — the shadow-overhead
          budget.  During the shadow phase the first [shadow_vms] VMs
          walk the candidate; during the canary phase the [shadow_vms]
          VMs after the canaries do. *)
  shadow_ticks : int;
  canary_ticks : int;
  seed : int64;
  jobs : int;
  vm_opts : Vm.options;  (** Base VM options ([device]/[spec_origin]/
          [shadow] are overridden per phase). *)
}

val default_config : device:string -> config
(** 4 VMs, 1 canary, 1 shadower, 12 shadow + 8 canary ticks, seed 1,
    1 job. *)

type gate_check = {
  g_cve : string;
  g_engine : string;  (** {!Sedspec.Checker.engine_to_string}. *)
  g_mode : string;  (** {!Sedspec.Checker.mode_to_string}. *)
  g_detected : bool;
  g_blocked : bool;
  g_pass : bool;
      (** Protection requires detected && blocked; enhancement requires
          detected. *)
}

val catalogue_gate : device:string -> recipe -> gate_check list
(** Replay every catalogued detectable CVE of the device against the
    candidate (both engines x both modes); exposed for harnesses. *)

type phase = {
  ph_rung : rung;
  ph_agree : int;
  ph_stricter : int;
  ph_looser : int;
  ph_failed_vms : int;
  ph_halted_vms : int;
  ph_breaker_trips : int;
  ph_param_anomalies : int;
  ph_max_window_looser : int;
      (** Peak windowed looser count across the fleet's merged per-tick
          stream. *)
  ph_first_looser_tick : int option;
  ph_canary_regressions : string list;
      (** A/B regression oracle: each canary VM is paired with a twin of
          the same index, seed and options enforcing the base spec, so
          benign-traffic flakiness (rare-command false positives halt
          base VMs too) cancels out.  One entry per canary VM that did
          {e worse} than its twin — failed, more halt ticks, a breaker
          trip, more parameter anomalies, crashes or degrades.  Empty
          outside the canary rung; any entry demotes. *)
}

val phase_of_reports : rung:rung -> (Vm.report * Vm.report option) list -> phase
(** Fold one fleet phase's VM reports, each with its canary twin's when
    it has one; exposed for harnesses. *)

val agreement_ratio : phase -> float
(** agree / (agree + stricter + looser); 1.0 when no comparisons ran. *)

type rollback = {
  rb_rung : rung;  (** The rung the candidate was demoted from. *)
  rb_reason : string;
  rb_to_revision : int;  (** The pinned base revision rolled back to. *)
  rb_latency_ticks : int;
      (** Deterministic rollback latency: ticks into the failing phase
          before the first looser evidence (the phase length when the
          failure was not verdict-shaped). *)
}

type outcome = {
  o_device : string;
  o_recipe : string;
  o_base_revision : int;
  o_cand_revision : int;  (** [-1] when the candidate never built. *)
  o_diff : Sedspec.Evolve.diff option;
  o_final : rung;
  o_pinned_revision : int;
      (** Candidate revision on promotion; base revision otherwise. *)
  o_shadow : phase option;
  o_canary : phase option;
  o_gates : (string * gate_check list) list;
      (** Catalogue-gate results per rung climbed, in rung order. *)
  o_rollback : rollback option;
}

val run : config -> recipe -> outcome
(** Climb the ladder.  Never raises on candidate misbehaviour (build
    failures and safety misses are rollback outcomes); raises
    [Invalid_argument] on an ill-formed config. *)

val reset_latches : unit -> unit
(** Clear the process-wide rollback latches (test harnesses only). *)

val outcome_to_json : outcome -> Sedspec_util.Json.t
(** Deterministic, jobs-independent rendering. *)

val pp_outcome : Format.formatter -> outcome -> unit
