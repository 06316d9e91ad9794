(** Anomaly remediation (paper §VIII "Anomaly Defence", listed as future
    work): instead of only halting or warning, classify alerts by severity
    and optionally roll the virtual machine back to a checkpoint taken
    before the exploitation.

    A supervisor ({!t}) wraps one device of a protected machine.  The
    caller ticks it between I/O bursts: on clean ticks it refreshes its
    checkpoint; when the checker has halted the VM it rolls back to the
    last clean checkpoint and resumes — unless its circuit breaker has
    escalated, which leaves the VM halted (the paper's protection mode).

    The checkpoint holds the device's control structure (its arena) and
    guest RAM, nothing else: interrupt lines and counts are not saved, and
    a rollback leaves them as they are.  Guest RAM keeps the single
    checkpoint image itself ({!Vmm.Guest_mem.checkpoint}), so there is one
    checkpoint per guest RAM: a second supervisor on the same machine
    would share it.  Refreshing or restoring the checkpoint copies only
    the 4 KiB pages dirtied since the last one, so its cost scales with the
    pages written between ticks, not with the size of RAM. *)

type severity = Critical | High | Medium

val severity_of : Checker.anomaly -> severity
(** Alert classification by strategy and timing: parameter-check anomalies
    are [Critical] (directly tied to exploitation, no false positives);
    indirect-jump anomalies are [High]; conditional-jump anomalies are
    [Medium] (may be rare-command false positives); contained internal
    checker errors are [Critical] (the shadow can no longer be trusted).
    Post-execution detections are promoted one level, since damage may
    already exist. *)

val severity_to_string : severity -> string

type event = { anomaly : Checker.anomaly; severity : severity }

type t

val create :
  ?aux_drain:(unit -> Checker.anomaly list) ->
  Vmm.Machine.t ->
  device:string ->
  Checker.t ->
  t
(** [create machine ~device checker] builds a supervisor.
    [aux_drain] feeds anomalies from a second enforcement layer (the
    guest-side response validator) into every tick's adjudication, so a
    halt raised by that layer — whose anomalies the checker never sees —
    is classified and remedied instead of leaving the VM down forever;
    on clean ticks it is drained as benign bookkeeping like the
    checker's own queue (default: none).
    The circuit breaker is always armed: when applying a rollback would
    make more than 2 rollbacks within the last 8 ticks, the supervisor
    leaves the VM halted instead and stays escalated — a fault that
    re-trips the checker after every restore must not oscillate forever.
    An initial checkpoint is taken immediately. *)

val checkpoint : t -> unit
(** Capture the device's control structure and guest RAM as the rollback
    target (RAM: only the pages dirtied since the last checkpoint).
    While the machine is halted this is a no-op recorded in {!log}
    (refreshing the target would capture post-anomaly state; callers
    ticking on a timer must not crash). *)

val tick : t -> event list
(** Inspect the machine: if it is running, run one bounded
    [Checker.heal] pass, drain (benign bookkeeping) and refresh the
    checkpoint; if it was halted by anomalies, classify them, roll back —
    unless the circuit breaker escalates — and return the events. *)

val events : t -> event list
(** All events so far, oldest first. *)

val rollbacks : t -> int

val breaker_tripped : t -> bool
(** The circuit breaker escalated at least once (latched). *)

val log : t -> string list
(** Operational log, oldest first: skipped checkpoints, heal outcomes,
    breaker escalations. *)

(** Structured supervisor state.  Everything here used to be reachable
    only by parsing {!log} lines; the fleet governor and the health
    snapshot JSON consume this record instead of scraping strings. *)
type snapshot = {
  s_ticks : int;  (** {!tick} calls so far. *)
  s_events : int;  (** Adjudicated anomaly events so far. *)
  s_rollbacks : int;  (** Rollbacks applied (lifetime). *)
  s_rollbacks_in_window : int;
      (** Rollbacks inside the trailing 8-tick breaker window. *)
  s_breaker_tripped : bool;  (** Latched escalation (see {!breaker_tripped}). *)
  s_halted : bool;  (** The supervised machine is currently halted. *)
}

val snapshot : t -> snapshot
(** Consistent point-in-time view of the supervisor; pure read, never
    advances the tick counter or touches the checkpoint. *)

val pp_event : Format.formatter -> event -> unit
