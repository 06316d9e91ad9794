type strategy_outcome = {
  strategy : Sedspec.Checker.strategy;
  detected : bool;
  blocked : bool;
  anomalies : Sedspec.Checker.anomaly list;
  effects : Attacks.Attack.effects;
}

type result = {
  attack : Attacks.Attack.t;
  setup_clean : bool;
  unprotected : Attacks.Attack.effects;
  per_strategy : strategy_outcome list;
}

let strategies =
  [
    Sedspec.Checker.Parameter_check;
    Sedspec.Checker.Indirect_jump_check;
    Sedspec.Checker.Conditional_jump_check;
  ]

let ground_truth (attack : Attacks.Attack.t) =
  let (module W : Workload.Samples.DEVICE_WORKLOAD) =
    Workload.Samples.find attack.device
  in
  let m = W.make_machine attack.qemu_version in
  attack.setup m;
  Attacks.Attack.observe_effects m ~device:attack.device
    (fun () -> Attacks.Attack.run_stream m attack)
    attack

let with_strategy (attack : Attacks.Attack.t) strategy =
  let w = Workload.Samples.find attack.device in
  let config =
    {
      Sedspec.Checker.default_config with
      Sedspec.Checker.strategies = [ strategy ];
    }
  in
  let m, checker =
    Spec_cache.fresh_protected_machine ~config w attack.qemu_version
  in
  attack.setup m;
  let setup_anoms = Sedspec.Checker.drain_anomalies checker in
  let effects =
    Attacks.Attack.observe_effects m ~device:attack.device
      (fun () -> Attacks.Attack.run_stream m attack)
      attack
  in
  let anomalies = Sedspec.Checker.drain_anomalies checker in
  ( setup_anoms = [],
    {
      strategy;
      detected = anomalies <> [];
      blocked = Vmm.Machine.halted m;
      anomalies;
      effects;
    } )

let run attack =
  let unprotected = ground_truth attack in
  let outcomes = List.map (with_strategy attack) strategies in
  {
    attack;
    setup_clean = List.for_all fst outcomes;
    unprotected;
    per_strategy = List.map snd outcomes;
  }

(* Each case study is independent (fresh machines, a shared read-only
   spec from the single-flight cache), so the catalogue fans out across
   domains; results come back in catalogue order either way. *)
let run_all ?(jobs = 1) () = Sedspec_util.Runner.map ~jobs run Attacks.Attack.all

let matches_expectation r =
  let detected_set =
    List.filter_map
      (fun o -> if o.detected then Some o.strategy else None)
      r.per_strategy
  in
  let expected = r.attack.expected in
  let same_set =
    List.sort compare detected_set = List.sort compare expected
  in
  let concrete =
    if r.attack.detectable then Attacks.Attack.succeeded r.unprotected
    else Attacks.Attack.succeeded r.unprotected && detected_set = []
  in
  r.setup_clean && same_set && concrete

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s (%s, QEMU %s)%s@," r.attack.cve r.attack.device
    (Devices.Qemu_version.to_string r.attack.qemu_version)
    (if r.setup_clean then "" else "  [SETUP NOT CLEAN]");
  Format.fprintf ppf "  unprotected: %a@," Attacks.Attack.pp_effects r.unprotected;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-24s detected=%b blocked=%b (%d anomalies)@,"
        (Sedspec.Checker.strategy_to_string o.strategy)
        o.detected o.blocked
        (List.length o.anomalies))
    r.per_strategy;
  Format.fprintf ppf "@]"
