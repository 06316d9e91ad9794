(** The guest-side validator: enforcement over the host->guest channel.

    SEDSpec's checker assumes the device model is buggy but not actively
    hostile: it vets what the guest asks the device to do.  The validator
    closes the opposite seam — a compromised or adversarially patched
    device model feeding the guest corrupted read-returns, oversized
    completions or interrupt storms.  It walks the trained
    {!Resp.profile} over the response stream of one device and turns any
    departure into a fail-closed verdict, with the checker's containment
    discipline:

    - the response hook is total: an internal failure is contained and
      adjudicated at the interaction boundary under the configured
      {!Sedspec.Checker.containment} policy (fail-closed by default —
      protection degrades to unavailability, never to silence);
    - self-healing is bounded (8 heals), so a fault that re-corrupts
      the in-flight state on every interaction degrades to an explicit
      refusal instead of masking itself forever;
    - {!attach} adds its layers after the device's existing ones
      (normally the ES-Checker's), so both directions are enforced and
      the strongest verdict wins ({!Vmm.Machine.strength}) — and
      {!drain_as_checker_anomalies} feeds the remedy supervisor, so a
      hostile device trips the same rollback/circuit-breaker machinery as
      a request-direction exploit. *)

type violation =
  | V_sequence  (** Response kind outside the trained bigram. *)
  | V_envelope  (** Read-return/store value outside the trained mask. *)
  | V_dma_len  (** Outbound DMA longer than the trained bound. *)
  | V_irq_storm  (** More IRQ raises per interaction than trained. *)
  | V_event_storm  (** More response events per interaction than trained. *)
  | V_internal  (** Contained validator failure (diagnostic channel). *)

val violation_to_string : violation -> string

type anomaly = { violation : violation; detail : string }

type config = {
  containment : Sedspec.Checker.containment;
      (** Verdict policy for contained internal errors. *)
}

val default_config : config
(** Fail-closed. *)

type t

val attach :
  ?config:config ->
  Vmm.Machine.t ->
  device:string ->
  profile:Resp.profile ->
  t
(** Add the validator as a response-hook layer of the device's
    interpreter and an interposer layer of the machine, after the
    existing layers. *)

val detach : t -> unit
(** Remove the validator's two layers; every other layer stays. *)

val anomalies : t -> anomaly list
(** All anomalies so far, oldest first. *)

val drain : t -> anomaly list

val drain_as_checker_anomalies : t -> Sedspec.Checker.anomaly list
(** Drain, rendered as checker anomalies (envelope/DMA violations as
    parameter checks, sequence/storm violations as conditional-jump
    checks, internal as [Internal_error]; detail prefixed ["guard: "]) —
    the adapter the remedy supervisor's [aux_drain] consumes. *)

val heal : t -> bool
(** Clear a stale in-flight buffer (the responses of an interaction that
    never reached the interposer's [after], or anomalies still pending),
    at most 8 times; [false] once the budget is spent and state is still
    dirty.  After closed interactions, or one whose device never ran,
    there is nothing to heal: it returns [true] and counts nothing. *)

val reset : t -> unit
(** Return to the just-attached state (clears anomalies, counters, heal
    budget spend and the fault hook). *)

val set_fault_hook : t -> (unit -> unit) option -> unit
(** Fault-injection seam: runs at the top of every boundary adjudication,
    inside the containment wrapper — an injected exception exercises the
    fail-closed/fail-open policies exactly like a real internal fault. *)

val internal_errors : t -> int
val interactions : t -> int
val events_seen : t -> int
val heals : t -> int
val config : t -> config
val set_config : t -> config -> unit
val profile : t -> Resp.profile
val device : t -> string
val pp_anomaly : Format.formatter -> anomaly -> unit
