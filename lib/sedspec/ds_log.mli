(** Device state change logs (paper §IV, phase 1 output).

    A benign test case logs a sequence of I/O interactions, each carrying
    the observation-point entries the instrumented device emitted: the
    block's index and reference and how it left (the branch side, the
    switch value and label — for a command decision block, the decoded
    command — or the function-pointer value).  That is all Algorithm 1
    reads.  The paper's log also copies the selected state parameters at
    every entry; nothing here reads them, so the log does not copy them.
    Algorithm 1 consumes the interactions one at a time, as each one
    closes, so no log outlives its interaction. *)

type interaction = {
  handler : string;
  params : (string * int64) list;
  entries : Interp.Event.observe_entry list;
}

(** Collector: instruments a device with observation points and groups the
    resulting entries per interaction.  Interaction boundaries come from
    the machine's dispatch (the collector adds an interposer layer while
    attached).  It keeps only the interaction in flight. *)

module Collector : sig
  type collector

  val attach :
    Vmm.Machine.t ->
    device:string ->
    points:Devir.Program.bref list ->
    on_interaction:(interaction -> unit) ->
    collector
  (** [on_interaction] receives each interaction as it closes, in
      dispatch order. *)

  val flush : collector -> unit
  (** Close the interaction in flight, if any (one whose dispatch ended
      without reaching the interposer's [after]).  Call it at a test-case
      boundary so no interaction crosses into the next case. *)

  val detach : collector -> unit
  (** Remove observation points and the collector's own hook and
      interposer layers; other layers stay.  An interaction still in
      flight is dropped. *)
end

val observation_points : Devir.Program.t -> Devir.Program.bref list
(** Where SEDSpec places observation points: entry, exit, command decision
    and command end blocks, plus every block ending in a conditional
    branch, switch or indirect call — the control-flow joints from which
    the full path can be restored statically. *)
