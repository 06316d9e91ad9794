type verdict = {
  cve : string;
  device : string;
  nioh_detected : bool;
  sedspec_detected : bool;
}

let nioh_cves =
  [
    "CVE-2015-3456";
    "CVE-2015-5158";
    "CVE-2016-4439";
    "CVE-2016-7909";
    "CVE-2016-1568";
  ]

let nioh_detects (attack : Attacks.Attack.t) =
  let (module W : Workload.Samples.DEVICE_WORKLOAD) =
    Workload.Samples.find attack.device
  in
  let m = W.make_machine attack.qemu_version in
  let spec =
    match Nioh.spec_for attack.device with
    | Some s -> s
    | None -> invalid_arg ("no nioh model for " ^ attack.device)
  in
  (* Nioh monitors from boot; the benign setup must pass it too. *)
  let monitor = Nioh.attach m spec in
  attack.setup m;
  assert (Nioh.anomalies monitor = []);
  Attacks.Attack.run_stream m attack;
  Nioh.drain_anomalies monitor <> []

let sedspec_detects (attack : Attacks.Attack.t) =
  let w = Workload.Samples.find attack.device in
  let m, checker = Spec_cache.fresh_protected_machine w attack.qemu_version in
  attack.setup m;
  ignore (Sedspec.Checker.drain_anomalies checker);
  Attacks.Attack.run_stream m attack;
  Sedspec.Checker.drain_anomalies checker <> []

let run () =
  List.map
    (fun cve ->
      let attack = Attacks.Attack.find cve in
      {
        cve;
        device = attack.device;
        nioh_detected = nioh_detects attack;
        sedspec_detected = sedspec_detects attack;
      })
    nioh_cves

let benign_nioh_fp device =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let spec = Option.get (Nioh.spec_for device) in
  let monitor = Nioh.attach m spec in
  let rng = Sedspec_util.Prng.create 17L in
  let flagged = ref 0 in
  for _ = 1 to 40 do
    W.soak_case ~mode:Workload.Samples.Random ~rng ~rare_prob:0.05 ~ops:8 m;
    if Nioh.drain_anomalies monitor <> [] then incr flagged;
    if Vmm.Machine.halted m then begin
      Vmm.Machine.resume m;
      Nioh.resync monitor
    end
  done;
  !flagged
