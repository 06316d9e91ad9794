(** Execution-specification cache.

    Experiments need one trained specification per (device, QEMU version)
    pair; building one costs two training passes, so they are memoised for
    the lifetime of the process.

    The cache is domain-safe: lookups are mutex-guarded and builds are
    single-flight, so concurrent experiments (see {!Sedspec_util.Runner})
    never build the same specification twice — late callers block until
    the first build lands and share its result. *)

val training_cases : int ref
(** Training corpus size per device (default 24). *)

val built :
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  Devices.Qemu_version.t ->
  Sedspec.Pipeline.built
(** Train (or fetch) the specification for a device at a version.

    Failure discipline: a build that raises evicts its single-flight
    marker (under the cache lock, before the exception propagates) and
    wakes all waiters — one of them claims the slot and retries the
    build, the rest keep waiting; a later call after a transient failure
    starts a fresh build instead of observing a poisoned entry.  Only
    the caller whose own build raised sees the exception. *)

val built_retrained :
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  Devices.Qemu_version.t ->
  cases:int ->
  Sedspec.Pipeline.built
(** A candidate specification: a fresh training pass at corpus size
    [cases] (the evolution ladder's retrained-on-recent-traffic
    candidate), memoised under its own single-flight key
    [(device, version, Retrained cases)].  The spec is stamped one
    revision past the cached base with [Retrained cases] provenance, so
    rollout can order and pin generations.  Raises [Invalid_argument]
    when [cases < 1]. *)

val builds : unit -> int
(** Successful single-flight builds since process start (each one also
    lowered exactly one shared compiled arena).  Monotone; harnesses
    assert deltas across a run — one per (device, version) key touched,
    independent of VM count and [jobs]. *)

val set_build_fault : (string -> unit) option -> unit
(** Test/fault-injection seam: the hook runs with the device name at the
    top of every single-flight spec build and may raise to simulate a
    transient build failure (exercised by the fleet's retry-with-backoff
    and the spec-cache retry test).  [None] removes it. *)

val fresh_protected_machine :
  ?config:Sedspec.Checker.config ->
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  Devices.Qemu_version.t ->
  Vmm.Machine.t * Sedspec.Checker.t
(** A fresh machine with the device attached and a checker built from the
    cached specification. *)

val guard_profile :
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  Devices.Qemu_version.t ->
  Guard.Resp.profile
(** Train (or fetch) the response-direction profile the guest-side
    validator enforces, over the same benign corpus ({!training_cases})
    as the spec build.  Memoised single-flight like {!built}, in its own
    table — guard profiles do not count toward {!builds}.

    Fail-closed discipline: unlike {!built}, a training failure does not
    propagate — the pair gets {!Guard.Resp.fail_closed} (every response
    event flags) cached as its profile, so an untrainable pair is guarded
    strictly rather than not at all.  Each substitution increments
    {!guard_fail_closed}. *)

val guard_builds : unit -> int
(** Successful guard-profile builds since process start (monotone). *)

val guard_fail_closed : unit -> int
(** Fail-closed profile substitutions since process start (monotone):
    guard trainings that raised and were replaced by
    {!Guard.Resp.fail_closed}. *)
