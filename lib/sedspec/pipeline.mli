(** End-to-end SEDSpec pipeline (paper Fig. 1).

    Phase 1 (data collection): run the benign training cases with the IPT
    simulator attached, decode each trace window into the ITC-CFG as soon
    as it closes, and select the device state parameters; observation
    points are placed at the control-flow joints.  The packet stream is
    not kept: collection holds one window at a time.

    Phase 2 (specification construction): re-run the training cases with
    observation points active and fold each interaction of the device
    state change log into the ES-CFG (Algorithm 1) as soon as it closes,
    then apply control-flow reduction and analyze data dependencies.  The
    logs are not kept: a build holds only what enforcement reads.

    Both phases walk the program's block index
    ({!Devir.Program.index_of}): the decoder and Algorithm 1 resolve
    every block and successor by index, and an observation copies no
    device state.

    Phase 3 (runtime protection): attach an ES-Checker built from the
    specification in front of the device. *)

type trainer = {
  cases : int;
  run_case : Vmm.Machine.t -> int -> unit;
      (** Drive one benign test case against the machine.  Must be
          replayable: the pipeline runs every case once per phase. *)
}

type phase1 = {
  itc : Iptrace.Itc_cfg.t;
  usage : Progan.Usage.t;
  selection : Selection.t;
  observation_points : Devir.Program.bref list;
  trace_bytes : int;  (** Encoded PT volume of the training run. *)
}

type built = {
  spec : Es_cfg.t;
  p1 : phase1;
  interactions : int;  (** I/O interactions folded in phase 2. *)
  datadep : Datadep.report;
  reduced : int;  (** Nodes removed by control-flow reduction. *)
  arena : Compile.t;
      (** The spec lowered once at construction: immutable, physically
          shared by every checker {!protect} attaches from this value. *)
}

val collect : Vmm.Machine.t -> device:string -> trainer -> phase1
(** Phase 1.  Resets the device control structure first.  Raises
    {!Iptrace.Decoder.Desync} as soon as a window that does not decode
    closes (e.g. one that a trap other than a wild jump cut short): inside
    the training run, or after the last case for the last window.  The
    encoder's hook is removed either way. *)

val construct :
  ?reduce:bool -> Vmm.Machine.t -> device:string -> phase1 -> trainer -> built
(** Phase 2 ([reduce] defaults to [true]).  Raises
    {!Es_cfg.Restore_failed} as soon as an interaction closes whose log
    does not restore to a path through the program. *)

val build : ?reduce:bool -> Vmm.Machine.t -> device:string -> trainer -> built
(** Phases 1 + 2. *)

val protect :
  ?config:Checker.config -> Vmm.Machine.t -> device:string -> built -> Checker.t
(** Phase 3: resets the device and attaches the checker. *)

val pp_built : Format.formatter -> built -> unit
