type trainer = {
  cases : int;
  run_case : Vmm.Machine.t -> int -> unit;
}

type phase1 = {
  itc : Iptrace.Itc_cfg.t;
  usage : Progan.Usage.t;
  selection : Selection.t;
  observation_points : Devir.Program.bref list;
  trace_bytes : int;
}

type built = {
  spec : Es_cfg.t;
  p1 : phase1;
  interactions : int;
  datadep : Datadep.report;
  reduced : int;
  arena : Compile.t;
}

let reset_device machine ~device =
  let interp = Vmm.Machine.interp_of machine device in
  Devir.Arena.reset (Interp.arena interp);
  Vmm.Machine.resume machine

(* Each trace window is decoded and folded into the ITC-CFG the moment it
   closes, so only the open window is ever held: fdc's training stream is
   5.4 MB of packets.  A [Decoder.Desync] therefore fires when the bad
   window closes, inside the training run unless it is the last; it
   escapes [collect], and [with_hooks] removes the encoder's hook as it
   unwinds. *)
let collect machine ~device trainer =
  reset_device machine ~device;
  let interp = Vmm.Machine.interp_of machine device in
  let program = Interp.program interp in
  let itc = Iptrace.Itc_cfg.create program in
  let encoder =
    Iptrace.Encoder.create (Iptrace.Filter.for_program program)
      ~on_window:(Iptrace.Itc_cfg.add_window itc)
  in
  Interp.with_hooks interp
    { Interp.silent_hooks with Interp.on_trace = Iptrace.Encoder.feed encoder }
    (fun () ->
      for case = 0 to trainer.cases - 1 do
        trainer.run_case machine case
      done);
  Iptrace.Encoder.finish encoder;
  let usage = Progan.Usage.analyze program in
  let observed =
    List.map (fun (n : Iptrace.Itc_cfg.node) -> n.bref) (Iptrace.Itc_cfg.nodes itc)
  in
  let selection = Selection.select program usage ~observed in
  {
    itc;
    usage;
    selection;
    observation_points = Ds_log.observation_points program;
    trace_bytes = Iptrace.Encoder.trace_bytes encoder;
  }

(* The paper's trainer feeds the same samples again with the observation
   points instrumented.  Each interaction goes into the ES-CFG the moment
   it closes and is dropped there, so its entries die young.  The command
   context carries across the interactions of a case and resets at each
   case boundary. *)
let construct ?(reduce = true) machine ~device p1 trainer =
  reset_device machine ~device;
  let program = Interp.program (Vmm.Machine.interp_of machine device) in
  let spec = Es_cfg.create ~program ~selection:p1.selection in
  let ctx = ref Es_cfg.case_start and interactions = ref 0 in
  let collector =
    Ds_log.Collector.attach machine ~device ~points:p1.observation_points
      ~on_interaction:(fun i ->
        incr interactions;
        ctx := Es_cfg.add_interaction spec !ctx i)
  in
  for case = 0 to trainer.cases - 1 do
    trainer.run_case machine case;
    Ds_log.Collector.flush collector;
    ctx := Es_cfg.case_start
  done;
  Ds_log.Collector.detach collector;
  let reduced = if reduce then Es_cfg.reduce spec else 0 in
  let datadep = Datadep.analyze spec in
  (* Lower eagerly, exactly once, while [built] is still private to the
     constructing thread: every checker attached from this [built] shares
     this one immutable arena (the fleet cache hands the same [built] to
     every VM of a (device, version), across Runner domains). *)
  let arena = Compile.lower spec in
  { spec; p1; interactions = !interactions; datadep; reduced; arena }

let build ?reduce machine ~device trainer =
  let p1 = collect machine ~device trainer in
  construct ?reduce machine ~device p1 trainer

let protect ?config machine ~device built =
  reset_device machine ~device;
  Checker.attach ?config ~compiled:built.arena machine ~spec:built.spec device

let pp_built ppf b =
  Format.fprintf ppf "@[<v>%a@,%a@,trace volume: %d bytes, %d interactions@]"
    Es_cfg.pp_stats b.spec Datadep.pp_report b.datadep b.p1.trace_bytes
    b.interactions
