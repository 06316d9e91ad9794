(** Device state change logs (paper §IV, phase 1 output).

    A log records one benign test case: the sequence of I/O interactions it
    performed, each carrying the observation-point entries the instrumented
    device emitted (block identity and kind, the selected state parameters'
    values after the block, the branch outcome, and — for command decision
    blocks — the decoded command).  Algorithm 1 consumes the logs one
    case at a time. *)

type interaction = {
  handler : string;
  params : (string * int64) list;
  entries : Interp.Event.observe_entry list;
}

type log = interaction list

(** Collector: instruments a device with observation points and groups the
    resulting entries per interaction and per test case.  Interaction
    boundaries come from the machine's dispatch (the collector occupies the
    device's interposer slot while attached — training happens before any
    checker is installed).  It keeps only the case in progress: each
    {!take_case} hands that case's log over and forgets it. *)

module Collector : sig
  type collector

  val attach :
    Vmm.Machine.t ->
    device:string ->
    points:Devir.Program.bref list ->
    state_params:string list ->
    collector

  val take_case : collector -> log
  (** End the current test case and return its log, oldest interaction
      first ([[]] when the case performed no interaction).  The next
      interaction starts a new case. *)

  val detach : collector -> unit
  (** Remove observation points, the observe hook and the interposer.
      Entries of an untaken case are dropped. *)
end

val observation_points : Devir.Program.t -> Devir.Program.bref list
(** Where SEDSpec places observation points: entry, exit, command decision
    and command end blocks, plus every block ending in a conditional
    branch, switch or indirect call — the control-flow joints from which
    the full path can be restored statically. *)
