(** Differential execution of fuzzer inputs.

    A {!profile} names a pair of checker configurations; replaying an
    input under both sides and comparing every observable (per-step I/O
    results, anomalies, warnings, halt point/reason, statistics,
    shadow-arena bytes, ES-CFG coverage, crashes) yields the fuzzer's
    oracle.  The production profiles compare the compiled walk engine
    against the interpreted reference in both working modes, where any
    difference is a checker bug. *)

module C := Sedspec.Checker

type profile = {
  pname : string;
  left : C.config;
  right : C.config;
  left_version : Devices.Qemu_version.t option;
      (** Replay the left side at this device version (and the spec
          trained on it) instead of the input's own version — the
          cross-version seam the deviation locator uses.  [None] keeps
          the input's version. *)
  right_version : Devices.Qemu_version.t option;
  lenient : bool;
      (** Mask observables that legitimately differ across specs (walk
          statistics, node/edge coverage); verdict-level fields —
          I/O results, anomalies, warnings, halts, shadow bytes,
          crashes — are always compared. *)
}

val profile : mode:C.mode -> pname:string -> profile
(** Compiled-vs-interpreted over the trained spec (strict). *)

val default_profiles : profile list
(** Compiled vs Interpreted, in protection and enhancement modes. *)

val cross_version_profiles :
  vuln:Devices.Qemu_version.t -> patched:Devices.Qemu_version.t -> profile list
(** Vulnerable-vs-patched device model under the {e same} engine and
    mode (protection and enhancement), each side checked by the spec
    trained at its own version; lenient.  A divergence is a behavioural
    deviation across the version boundary, not a checker bug — the raw
    signal {!Locate} minimizes and clusters. *)

val device_model : device:string -> version:Devices.Qemu_version.t -> Devices.Device.t
(** The device model at [version], built on each call.  Raises
    [Invalid_argument] for an unknown device name. *)

type obs = {
  o_steps : string list;
  o_anomalies : string list;
  o_warnings : string list;
  o_halted_at : int option;
  o_halt_reason : string;
  o_stats : string;
  o_shadow : string;
  o_nodes : string list;
  o_edges : string list;
  o_crash : string option;
}

val run :
  config:C.config ->
  ?version:Devices.Qemu_version.t ->
  Input.t ->
  obs * C.coverage
(** Replay an input on a fresh protected machine under one configuration,
    checked by the cached trained spec ([version] overrides the input's
    device version, defaulting to the input's own).  Stops at the first
    halt verdict; host-level exceptions out of a step are recorded in
    [o_crash] rather than propagated. *)

val trace :
  ?version:Devices.Qemu_version.t ->
  Input.t ->
  (Devir.Program.bref * int) list
  * (Devir.Program.bref * Devir.Program.bref) list
(** Device-level execution trace: replay the input on an {e unprotected}
    machine and return the devir IR blocks the device executes with
    their execution counts (sorted by block), plus consecutive-pair
    edges across the whole replay.  Unlike the spec-walk coverage in
    {!obs} — which can only name trained blocks — this sees patched
    rejection paths the benign corpus never exercises, so the deviation
    locator attributes against it; the counts additionally expose
    deviations that visit the same block set a different number of times
    (a re-bounded loop).  Walk faults (checker effects) are skipped;
    guest faults apply. *)

type divergence = { d_profile : string; d_field : string; d_detail : string }

val compare_obs : ?lenient:bool -> obs -> obs -> (string * string) list
(** Field-wise differences as [(field, detail)] pairs; empty = identical.
    [lenient] (default [false]) skips stats and coverage fields. *)

type outcome = {
  divergences : divergence list;
  crashed : string option;
  anomalous : bool;
  coverage : C.coverage;
}

val evaluate : ?profiles:profile list -> Input.t -> outcome
(** Run an input under every profile (both sides) and fold the oracle
    verdicts.  [coverage] comes from the first profile's left run, making
    it a deterministic feedback signal.  Raises [Invalid_argument] when
    [profiles] is empty. *)
