(* Fleet supervisor tests: governor ladder + hard invariant, deadline
   watchdog, VM bulkheads, spec-acquisition retry, and jobs-independent
   fleet reports. *)

module Governor = Fleet.Governor
module Vm = Fleet.Vm
module Supervisor = Fleet.Supervisor
module Checker = Sedspec.Checker

let () = Metrics.Spec_cache.training_cases := 12

let state = Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Governor.state_to_string s))
    ( = )

(* --- Governor ladder ------------------------------------------------------ *)

let test_governor_degrades_and_restores () =
  let g =
    Governor.create
      ~config:{ window = 4; degrade_burn = 5; restore_burn = 1; restore_clean = 3 }
      ()
  in
  Alcotest.check state "starts protecting" Governor.Protection (Governor.state g);
  (* Burn through the budget: 3 + 3 = 6 > 5 degrades one rung and clears
     the window (the incident is charged once). *)
  (match Governor.observe g ~burn:3 with
  | Governor.Steady -> ()
  | _ -> Alcotest.fail "no transition under the threshold");
  (match Governor.observe g ~burn:3 with
  | Governor.Degraded (Governor.Protection, Governor.Enhancement) -> ()
  | _ -> Alcotest.fail "expected Protection -> Enhancement");
  Alcotest.(check int) "window cleared on transition" 0 (Governor.burn_in_window g);
  (* Another incident descends to the bottom rung and stays there. *)
  ignore (Governor.observe g ~burn:6);
  Alcotest.check state "fail-open" Governor.Fail_open (Governor.state g);
  ignore (Governor.observe g ~burn:6);
  Alcotest.check state "bottom rung holds" Governor.Fail_open (Governor.state g);
  (* A sustained clean run restores one rung at a time.  The failed
     degrade above left a stale burn of 6 in the window, so the first
     [window - 1] zeros only flush it; then [restore_clean] eligible
     observations buy the rung back. *)
  for i = 1 to 5 do
    match Governor.observe g ~burn:0 with
    | Governor.Steady -> ()
    | _ -> Alcotest.failf "flush/streak observation %d must be Steady" i
  done;
  (match Governor.observe g ~burn:0 with
  | Governor.Restored (Governor.Fail_open, Governor.Enhancement) -> ()
  | _ -> Alcotest.fail "expected Fail_open -> Enhancement after clean streak");
  ignore (Governor.observe g ~burn:0);
  ignore (Governor.observe g ~burn:0);
  (match Governor.observe g ~burn:0 with
  | Governor.Restored (Governor.Enhancement, Governor.Protection) -> ()
  | _ -> Alcotest.fail "expected Enhancement -> Protection");
  Alcotest.check state "fully restored" Governor.Protection (Governor.state g);
  Alcotest.(check int) "two degrades" 2 (Governor.degrades g);
  Alcotest.(check int) "two restores" 2 (Governor.restores g)

let test_governor_hysteresis_boundary () =
  (* A burn rate sitting on either boundary must hold the rung forever:
     exactly degrade_burn never degrades, and anything above restore_burn
     breaks the clean streak so it never restores either. *)
  let config =
    { Governor.window = 3; degrade_burn = 6; restore_burn = 2; restore_clean = 2 }
  in
  let g = Governor.create ~config () in
  for _ = 1 to 50 do
    (* A steady burn of 2 saturates the 3-wide window at exactly
       degrade_burn = 6 (the > is strict) and sits above restore_burn
       from the second observation on: the rung must hold forever. *)
    (match Governor.observe g ~burn:2 with
    | Governor.Steady -> ()
    | _ -> Alcotest.fail "boundary burn must not transition");
    if Governor.burn_in_window g > 6 then Alcotest.fail "ring buffer sum wrong"
  done;
  Alcotest.check state "degrade boundary holds the rung" Governor.Protection
    (Governor.state g);
  (* Push one rung down, then keep the window sum inside the hysteresis
     band (restore_burn < sum <= degrade_burn): no oscillation either
     way.  The opening 3 keeps the transient sums out of the
     restore-eligible region while the window refills. *)
  ignore (Governor.observe g ~burn:7);
  Alcotest.check state "degraded" Governor.Enhancement (Governor.state g);
  (match Governor.observe g ~burn:3 with
  | Governor.Steady -> ()
  | _ -> Alcotest.fail "band refill must not transition");
  for _ = 1 to 50 do
    match Governor.observe g ~burn:1 with
    | Governor.Steady -> ()
    | _ -> Alcotest.fail "hysteresis band must not transition"
  done;
  Alcotest.check state "band holds the rung" Governor.Enhancement
    (Governor.state g);
  Alcotest.(check int) "one degrade total" 1 (Governor.degrades g);
  Alcotest.(check int) "no restores" 0 (Governor.restores g)

let test_governor_preconditions () =
  let bad config =
    match Governor.create ~config () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid governor config accepted"
  in
  bad { Governor.window = 0; degrade_burn = 2; restore_burn = 1; restore_clean = 1 };
  bad { Governor.window = 4; degrade_burn = 2; restore_burn = 2; restore_clean = 1 };
  bad { Governor.window = 4; degrade_burn = 2; restore_burn = 1; restore_clean = 0 };
  let g = Governor.create () in
  match Governor.observe g ~burn:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative burn accepted"

(* --- Hard invariant: parameter checks halt in every rung ------------------ *)

let test_invariant_parameter_check_halts_in_every_state () =
  (* CVE-2021-3409 (sdhci) is detected by the parameter check.  Replay
     it under the checker configuration of each governor rung: every
     rung must detect AND block it — degradation may only relax the
     warn-only strategies and the internal-error policy. *)
  let attack = Attacks.Attack.find "CVE-2021-3409" in
  let w = Workload.Samples.find attack.Attacks.Attack.device in
  List.iter
    (fun gstate ->
      let config =
        Governor.checker_config gstate ~base:Checker.default_config
      in
      let m, checker =
        Metrics.Spec_cache.fresh_protected_machine ~config w
          attack.Attacks.Attack.qemu_version
      in
      attack.Attacks.Attack.setup m;
      ignore (Checker.drain_anomalies checker);
      (try attack.Attacks.Attack.run m with Exit -> ());
      let anoms = Checker.drain_anomalies checker in
      let name = Governor.state_to_string gstate in
      Alcotest.(check bool)
        (name ^ ": parameter-check anomaly raised")
        true
        (List.exists
           (fun (a : Checker.anomaly) ->
             a.Checker.strategy = Checker.Parameter_check)
           anoms);
      Alcotest.(check bool)
        (name ^ ": exploitation blocked (VM halted)")
        true (Vmm.Machine.halted m))
    [ Governor.Protection; Governor.Enhancement; Governor.Fail_open ]

let test_checker_config_keeps_parameter_check () =
  (* Even a base config that dropped the parameter check gets it back. *)
  let base = { Checker.default_config with Checker.strategies = [] } in
  List.iter
    (fun gstate ->
      let c = Governor.checker_config gstate ~base in
      Alcotest.(check bool)
        (Governor.state_to_string gstate ^ " keeps Parameter_check")
        true
        (List.mem Checker.Parameter_check c.Checker.strategies))
    [ Governor.Protection; Governor.Enhancement; Governor.Fail_open ]

(* --- Deadline watchdog ---------------------------------------------------- *)

let test_deadline_overrun_contained () =
  (* An absurdly small step budget: every walk overruns, and each
     overrun must come back as a contained Internal_error anomaly (the
     fail-closed halt), never a hang or an escaped exception. *)
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine ~vmexit_cost:0 w
      (Devices.Qemu_version.v 2 3 0)
  in
  Checker.set_deadline checker (Some 1);
  Alcotest.(check (option int)) "deadline armed" (Some 1)
    (Checker.deadline checker);
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  Alcotest.(check bool) "halted by the watchdog" true (Vmm.Machine.halted m);
  let anoms = Checker.drain_anomalies checker in
  Alcotest.(check bool) "internal-error anomaly" true
    (List.exists
       (fun (a : Checker.anomaly) -> a.Checker.strategy = Checker.Internal_error)
       anoms);
  Alcotest.(check bool) "overruns counted" true
    (Checker.deadline_overruns checker > 0);
  (* Disarm and reset: the machine serves normally again. *)
  Checker.set_deadline checker None;
  Vmm.Machine.resume m;
  Checker.resync checker;
  ignore (Checker.drain_anomalies checker);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check bool) "clean with watchdog off" false (Vmm.Machine.halted m);
  (* Budget must be positive. *)
  match Checker.set_deadline checker (Some 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero deadline accepted"

let test_deadline_engines_agree () =
  (* Same step counter in both engines: identical streams must overrun
     identically. *)
  let run engine =
    let w = Workload.Samples.find "fdc" in
    let config = { Checker.default_config with Checker.engine } in
    let m, checker =
      Metrics.Spec_cache.fresh_protected_machine ~config ~vmexit_cost:0 w
        (Devices.Qemu_version.v 2 3 0)
    in
    Checker.set_deadline checker (Some 3);
    let d = Workload.Fdc_driver.create m in
    ignore (Workload.Fdc_driver.reset d);
    (Checker.deadline_overruns checker, Vmm.Machine.halted m)
  in
  let o_c, h_c = run Checker.Compiled in
  let o_i, h_i = run Checker.Interpreted in
  Alcotest.(check int) "same overrun count" o_i o_c;
  Alcotest.(check bool) "same halt verdict" h_i h_c;
  Alcotest.(check bool) "overran" true (o_c > 0)

(* --- Vm bulkhead and spec acquisition ------------------------------------- *)

let test_vm_spec_retry_and_fallback () =
  (* A persisted source that always returns garbage burns its retries
     (CRC/parse failures) and falls back to a fresh pipeline rebuild:
     the VM must come up serving, with the retry accounting visible. *)
  let opts =
    {
      (Vm.default_options ~device:"fdc") with
      Vm.spec_origin = Vm.Persisted (fun () -> "corrupt nonsense");
      max_attempts = 3;
    }
  in
  let vm = Vm.create ~index:0 ~seed:11L opts in
  for _ = 1 to 3 do
    Vm.tick vm
  done;
  let r = Vm.report vm in
  Alcotest.(check string) "serving" "ok" r.Vm.r_status;
  Alcotest.(check int) "all retries burned" 3 r.Vm.r_build_attempts;
  Alcotest.(check bool) "fell back to rebuild" true r.Vm.r_build_fallback;
  Alcotest.(check bool) "logical backoff delay accounted" true
    (r.Vm.r_backoff_delay > 0);
  Alcotest.(check bool) "interactions served" true (r.Vm.r_interactions > 0);
  Alcotest.(check int) "stream has one line per tick" 3
    (List.length r.Vm.r_stream);
  (* A good persisted spec loads on the first attempt, no fallback. *)
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let text =
    Sedspec.Persist.to_string
      (Metrics.Spec_cache.built w W.paper_version).Sedspec.Pipeline.spec
  in
  let vm2 =
    Vm.create ~index:1 ~seed:11L
      { opts with Vm.spec_origin = Vm.Persisted (fun () -> text) }
  in
  Vm.tick vm2;
  let r2 = Vm.report vm2 in
  Alcotest.(check string) "serving from persisted spec" "ok" r2.Vm.r_status;
  Alcotest.(check int) "first attempt" 1 r2.Vm.r_build_attempts;
  Alcotest.(check bool) "no fallback" false r2.Vm.r_build_fallback

(* --- Shared immutable spec arenas ----------------------------------------- *)

let test_arena_shared_across_vms_and_domains () =
  (* Every cache-acquired VM of a (device, version) must walk the same
     physical compiled arena — that is the tentpole sharing invariant:
     N VMs cost one arena plus N cursors, never N arenas. *)
  let opts = Vm.default_options ~device:"fdc" in
  let vm1 = Vm.create ~index:0 ~seed:5L opts in
  let vm2 = Vm.create ~index:1 ~seed:6L opts in
  let arena_of vm =
    match Vm.arena vm with
    | Some a -> a
    | None -> Alcotest.fail "trained VM has no compiled arena"
  in
  let a1 = arena_of vm1 in
  Alcotest.(check bool) "two VMs, one arena" true (a1 == arena_of vm2);
  Vm.tick vm1;
  (match (Vm.report vm1).Vm.r_arena with
  | Some a -> Alcotest.(check bool) "report carries the arena" true (a == a1)
  | None -> Alcotest.fail "report must flag the shared arena");
  (* The same holds across Runner domains: arenas live on the shared
     major heap, so [==] is meaningful between domains, and the
     single-flight cache must hand every domain the same one. *)
  let arenas =
    Sedspec_util.Runner.map ~jobs:4
      (fun i -> arena_of (Vm.create ~index:i ~seed:(Int64.of_int (100 + i)) opts))
      [ 2; 3; 4; 5 ]
  in
  List.iter
    (fun a ->
      Alcotest.(check bool) "domain-created VM shares the arena" true (a == a1))
    arenas

let test_spec_cache_failed_build_keeps_healthy_arena () =
  (* A failed build may only evict its own cache marker: the healthy
     arena of a sibling key must survive physically intact, and the
     failed key must rebuild cleanly once the fault clears. *)
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let healthy =
    (Metrics.Spec_cache.built w W.paper_version).Sedspec.Pipeline.arena
  in
  Metrics.Spec_cache.set_build_fault
    (Some (fun _ -> failwith "injected build fault"));
  (match Metrics.Spec_cache.built w Devices.Qemu_version.latest with
  | exception _ -> ()
  | _ -> Alcotest.fail "faulted build must raise");
  Metrics.Spec_cache.set_build_fault None;
  let again =
    (Metrics.Spec_cache.built w W.paper_version).Sedspec.Pipeline.arena
  in
  Alcotest.(check bool) "healthy arena survives the failed sibling" true
    (again == healthy);
  let b1 = Metrics.Spec_cache.built w Devices.Qemu_version.latest in
  let b2 = Metrics.Spec_cache.built w Devices.Qemu_version.latest in
  Alcotest.(check bool) "faulted key rebuilds once, then caches" true
    (b1.Sedspec.Pipeline.arena == b2.Sedspec.Pipeline.arena)

(* --- Fleet determinism and isolation -------------------------------------- *)

let small_fleet jobs =
  {
    (Supervisor.default_options ()) with
    Supervisor.vms = 5;
    ticks = 4;
    seed = 42L;
    jobs;
    devices = [ "fdc"; "sdhci" ];
  }

let test_fleet_jobs_independent () =
  let r1 = Supervisor.run (small_fleet 1) in
  let r4 = Supervisor.run (small_fleet 4) in
  Alcotest.(check string) "report JSON bit-identical jobs 1 vs 4"
    (Supervisor.report_to_json r1)
    (Supervisor.report_to_json r4);
  Alcotest.(check int) "no failed VMs" 0 r1.Supervisor.f_failed_vms;
  Alcotest.(check bool) "fleet served traffic" true
    (r1.Supervisor.f_interactions > 0)

(* --- Shadow walk and the rollout ladder ----------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let retrain_fetch device =
  let w = Workload.Samples.find device in
  let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  fun () ->
    Metrics.Spec_cache.built_retrained w D.paper_version
      ~cases:!Metrics.Spec_cache.training_cases

let test_shadow_full_agreement () =
  (* A candidate retrained on the exact same corpus is behaviourally
     identical to the base: the lockstep shadow walk must agree on every
     verdict — zero stricter, zero looser, and no looser tick. *)
  let opts =
    {
      (Vm.default_options ~device:"fdc") with
      Vm.shadow = Some (retrain_fetch "fdc");
    }
  in
  let r =
    Supervisor.run
      {
        Supervisor.vms = 2;
        ticks = 8;
        seed = 11L;
        jobs = 1;
        devices = [ "fdc" ];
        vm_opts = (fun _ -> opts);
      }
  in
  Alcotest.(check int) "no failed VMs" 0 r.Supervisor.f_failed_vms;
  (match r.Supervisor.f_shadow with
  | None -> Alcotest.fail "fleet must aggregate the shadow scoreboard"
  | Some (agree, stricter, looser) ->
    Alcotest.(check bool) "comparisons ran" true (agree > 0);
    Alcotest.(check int) "no stricter verdicts" 0 stricter;
    Alcotest.(check int) "no looser verdicts" 0 looser);
  List.iter
    (fun (vr : Vm.report) ->
      match vr.Vm.r_shadow with
      | None -> Alcotest.fail "every VM shadowed a candidate"
      | Some sh ->
        Alcotest.(check int) "candidate revision bumped" 1 sh.Vm.sh_revision;
        Alcotest.(check (option int)) "never a looser tick" None
          sh.Vm.sh_first_looser_tick;
        Alcotest.(check bool) "sites recorded" true (sh.Vm.sh_sites <> []))
    r.Supervisor.f_vms;
  (* Shadow-enabled stream lines carry the scoreboard suffix. *)
  let first_vm = List.hd r.Supervisor.f_vms in
  List.iter
    (fun line ->
      Alcotest.(check bool) "stream line has sh= suffix" true
        (contains ~sub:" sh=" line))
    first_vm.Vm.r_stream

let test_shadow_jobs_independent () =
  let mk jobs =
    Supervisor.run
      {
        Supervisor.vms = 3;
        ticks = 6;
        seed = 13L;
        jobs;
        devices = [ "fdc" ];
        vm_opts =
          (fun device ->
            {
              (Vm.default_options ~device) with
              Vm.shadow = Some (retrain_fetch "fdc");
            });
      }
  in
  Alcotest.(check string) "shadow report JSON bit-identical jobs 1 vs 4"
    (Supervisor.report_to_json (mk 1))
    (Supervisor.report_to_json (mk 4))

(* A pcnet candidate trained without the link check lacks the base's one
   sync point (the BCR4 read's host value).  The VM still reports every
   sync event to both checkers; the candidate never walks that block, so
   it never pops the value, and the enforced checker must count exactly
   what it counts with no shadow at all. *)
let test_shadow_sync_points_differ () =
  let w = Workload.Samples.find "pcnet" in
  let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let no_link_trainer =
    {
      Sedspec.Pipeline.cases = 6;
      run_case =
        (fun m case ->
          let d = Workload.Pcnet_driver.create m in
          ignore (Workload.Pcnet_driver.reset d);
          ignore (Workload.Pcnet_driver.init d ~mode:0 ());
          ignore (Workload.Pcnet_driver.start d);
          for i = 0 to 3 do
            let len = 64 + ((case * 97 + i * 211) mod 1400) in
            ignore (Workload.Pcnet_driver.transmit d [ Bytes.make len 't' ]);
            ignore (Workload.Pcnet_driver.receive d (Bytes.make len 'r'));
            ignore (Workload.Pcnet_driver.rx_frame d);
            Workload.Pcnet_driver.ack_interrupts d
          done);
    }
  in
  let cand =
    Sedspec.Pipeline.build
      (D.make_machine D.paper_version)
      ~device:D.device_name no_link_trainer
  in
  let base = Metrics.Spec_cache.built w D.paper_version in
  let syncs (b : Sedspec.Pipeline.built) =
    Sedspec.Es_cfg.sync_points b.Sedspec.Pipeline.spec
  in
  Alcotest.(check bool) "base has a sync point" true (syncs base <> []);
  Alcotest.(check bool) "candidate sync points differ from the base's" true
    (syncs cand <> syncs base);
  let run shadow =
    let vm =
      Vm.create ~index:0 ~seed:17L
        { (Vm.default_options ~device:"pcnet") with Vm.shadow }
    in
    for _ = 1 to 8 do
      Vm.tick vm
    done;
    (Vm.report vm, Checker.stats (Option.get (Vm.checker vm)))
  in
  let plain = run None and shadowed = run (Some (fun () -> cand)) in
  (match (fst shadowed).Vm.r_shadow with
  | None -> Alcotest.fail "the VM must shadow the candidate"
  | Some sh ->
    Alcotest.(check bool) "comparisons ran" true
      (sh.Vm.sh_agree + sh.Vm.sh_stricter + sh.Vm.sh_looser > 0));
  (* The walk statistics catch a sync value the enforced checker missed:
     its post-sync walk would bail instead of completing. *)
  let counts ((r : Vm.report), (st : Checker.stats)) =
    [
      ("interactions", r.Vm.r_interactions);
      ("param anomalies", r.Vm.r_anoms_param);
      ("indirect anomalies", r.Vm.r_anoms_indirect);
      ("cond anomalies", r.Vm.r_anoms_cond);
      ("internal anomalies", r.Vm.r_anoms_internal);
      ("rollbacks", r.Vm.r_rollbacks);
      ("halt ticks", r.Vm.r_halt_ticks);
      ("warns", r.Vm.r_warns);
      ("walks ok", st.Checker.walks_ok);
      ("bails", st.Checker.bails);
      ("deferred", st.Checker.deferred);
      ("nodes walked", st.Checker.nodes_walked);
    ]
  in
  Alcotest.(check (list (pair string int)))
    "enforced counts equal the unshadowed run" (counts plain)
    (counts shadowed)

(* A candidate whose training corpus was poisoned with the exploit
   stream: the attack's traffic becomes "benign", so the spec admits the
   CVE's path and the catalogue gate must refuse it at the first rung. *)
let poisoned_recipe ~cve ~device =
  let w = Workload.Samples.find device in
  let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let attack = Attacks.Attack.find cve in
  {
    Fleet.Rollout.rc_name = "poisoned:" ^ cve;
    rc_build =
      (fun version ->
        let m = D.make_machine version in
        let base = D.trainer ~cases:!Metrics.Spec_cache.training_cases in
        let trainer =
          {
            Sedspec.Pipeline.cases = base.Sedspec.Pipeline.cases + 1;
            run_case =
              (fun m i ->
                if i < base.Sedspec.Pipeline.cases then
                  base.Sedspec.Pipeline.run_case m i
                else begin
                  (try attack.Attacks.Attack.setup m with _ -> ());
                  try attack.Attacks.Attack.run m with _ -> ()
                end);
          }
        in
        let b = Sedspec.Pipeline.build m ~device trainer in
        Sedspec.Es_cfg.set_version b.Sedspec.Pipeline.spec ~revision:1
          ~provenance:(Sedspec.Es_cfg.Retrained trainer.Sedspec.Pipeline.cases);
        b);
  }

let test_rollout_gate_covers_grown_cves () =
  (* The catalogue gate replays every detectable catalogued attack of
     the device — including the locator-grown GROWN-* entries — in both
     walk engines and both working modes, so a candidate that would
     miss one can never climb past the first rung. *)
  let w = Workload.Samples.find "sdhci" in
  let recipe =
    Fleet.Rollout.retrained w ~cases:!Metrics.Spec_cache.training_cases
  in
  let checks = Fleet.Rollout.catalogue_gate ~device:"sdhci" recipe in
  let cves = List.sort_uniq compare (List.map (fun g -> g.Fleet.Rollout.g_cve) checks) in
  Alcotest.(check bool) "grown entry gated" true
    (List.mem "GROWN-2021-3409" cves);
  Alcotest.(check bool) "original CVE gated" true
    (List.mem "CVE-2021-3409" cves);
  List.iter
    (fun cve ->
      let of_cve = List.filter (fun g -> g.Fleet.Rollout.g_cve = cve) checks in
      Alcotest.(check int) (cve ^ ": engines x modes") 4 (List.length of_cve);
      List.iter
        (fun g ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s passes" cve g.Fleet.Rollout.g_engine
               g.Fleet.Rollout.g_mode)
            true g.Fleet.Rollout.g_pass)
        of_cve)
    cves

let test_rollout_poisoned_rolled_back_and_latched () =
  Fleet.Rollout.reset_latches ();
  let cfg = Fleet.Rollout.default_config ~device:"scsi" in
  let recipe = poisoned_recipe ~cve:"CVE-2016-4439" ~device:"scsi" in
  let o = Fleet.Rollout.run cfg recipe in
  Alcotest.(check string) "rolled back" "rolled-back"
    (Fleet.Rollout.rung_to_string o.Fleet.Rollout.o_final);
  Alcotest.(check int) "pinned at the base revision" o.Fleet.Rollout.o_base_revision
    o.Fleet.Rollout.o_pinned_revision;
  (match o.Fleet.Rollout.o_rollback with
  | None -> Alcotest.fail "rollback record required"
  | Some rb ->
    Alcotest.(check string) "demoted from the shadow rung" "shadow"
      (Fleet.Rollout.rung_to_string rb.Fleet.Rollout.rb_rung);
    Alcotest.(check bool) "catalogue gate named the CVE" true
      (contains ~sub:"CVE-2016-4439" rb.Fleet.Rollout.rb_reason));
  (* The gate that tripped must show the miss in both engines and modes. *)
  (match o.Fleet.Rollout.o_gates with
  | [ ("shadow", checks) ] ->
    Alcotest.(check bool) "gate checked both engines x both modes" true
      (List.length checks >= 4);
    Alcotest.(check bool) "at least one check failed" true
      (List.exists (fun g -> not g.Fleet.Rollout.g_pass) checks)
  | _ -> Alcotest.fail "exactly the shadow-rung gate ran");
  (* Latched: a second attempt is refused without running anything. *)
  let o2 = Fleet.Rollout.run cfg recipe in
  Alcotest.(check string) "latched on retry" "rolled-back"
    (Fleet.Rollout.rung_to_string o2.Fleet.Rollout.o_final);
  (match o2.Fleet.Rollout.o_rollback with
  | Some rb ->
    Alcotest.(check bool) "latch reason" true
      (String.length rb.Fleet.Rollout.rb_reason >= 8
      && String.sub rb.Fleet.Rollout.rb_reason 0 8 = "latched:")
  | None -> Alcotest.fail "latched outcome carries the rollback");
  Fleet.Rollout.reset_latches ()

let test_rollout_equivalent_retrained_promoted () =
  Fleet.Rollout.reset_latches ();
  let w = Workload.Samples.find "fdc" in
  let cfg =
    {
      (Fleet.Rollout.default_config ~device:"fdc") with
      Fleet.Rollout.vms = 2;
      canary_vms = 1;
      shadow_ticks = 6;
      canary_ticks = 4;
      seed = 7L;
    }
  in
  let recipe =
    Fleet.Rollout.retrained w ~cases:!Metrics.Spec_cache.training_cases
  in
  let o = Fleet.Rollout.run cfg recipe in
  Alcotest.(check string) "promoted" "promoted"
    (Fleet.Rollout.rung_to_string o.Fleet.Rollout.o_final);
  Alcotest.(check int) "pinned at the candidate revision"
    o.Fleet.Rollout.o_cand_revision o.Fleet.Rollout.o_pinned_revision;
  Alcotest.(check bool) "candidate revision past the base" true
    (o.Fleet.Rollout.o_cand_revision > o.Fleet.Rollout.o_base_revision);
  Alcotest.(check int) "three rungs gated" 3
    (List.length o.Fleet.Rollout.o_gates);
  List.iter
    (fun (_, checks) ->
      Alcotest.(check bool) "every gate check passed" true
        (List.for_all (fun g -> g.Fleet.Rollout.g_pass) checks))
    o.Fleet.Rollout.o_gates;
  (match (o.Fleet.Rollout.o_shadow, o.Fleet.Rollout.o_canary) with
  | Some sh, Some ca ->
    Alcotest.(check int) "shadow phase: no looser verdicts" 0
      sh.Fleet.Rollout.ph_looser;
    Alcotest.(check int) "canary phase: no failed VMs" 0
      ca.Fleet.Rollout.ph_failed_vms;
    Alcotest.(check int) "canary phase: no parameter anomalies" 0
      ca.Fleet.Rollout.ph_param_anomalies
  | _ -> Alcotest.fail "both fleet phases must have run");
  (* The equivalent candidate's diff is empty — promotion was evidence,
     not luck. *)
  (match o.Fleet.Rollout.o_diff with
  | Some d ->
    Alcotest.(check bool) "diff is empty" true (Sedspec.Evolve.is_empty d)
  | None -> Alcotest.fail "diff must be present");
  Fleet.Rollout.reset_latches ()

let test_budget_window () =
  let b = Governor.Budget.create ~window:3 in
  Alcotest.(check int) "empty" 0 (Governor.Budget.sum b);
  Governor.Budget.observe b 2;
  Governor.Budget.observe b 3;
  Governor.Budget.observe b 4;
  Alcotest.(check int) "full window" 9 (Governor.Budget.sum b);
  Governor.Budget.observe b 1;
  Alcotest.(check int) "oldest evicted" 8 (Governor.Budget.sum b);
  Governor.Budget.clear b;
  Alcotest.(check int) "cleared" 0 (Governor.Budget.sum b);
  Alcotest.(check int) "window length" 3 (Governor.Budget.window b);
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Governor.Budget: window must be >= 1") (fun () ->
      ignore (Governor.Budget.create ~window:0));
  Alcotest.check_raises "burn >= 0"
    (Invalid_argument "Governor.Budget.observe: burn must be >= 0") (fun () ->
      Governor.Budget.observe b (-1))

let test_fleet_isolation_smoke () =
  let r =
    Faultinj.Campaign.isolation Faultinj.Campaign.Substrate
      {
        Faultinj.Campaign.fl_vms = 4;
        fl_faulty = 2;
        fl_ticks = 4;
        fl_seed = 3L;
        fl_jobs = 2;
        fl_devices = [ "fdc"; "sdhci" ];
      }
  in
  Alcotest.(check bool) "faults fired" true (r.Faultinj.Campaign.fl_fired > 0);
  Alcotest.(check (list int)) "no clean-VM divergence" []
    r.Faultinj.Campaign.fl_clean_divergent;
  Alcotest.(check bool) "jobs-independent under faults" false
    r.Faultinj.Campaign.fl_jobs_divergence;
  Alcotest.(check bool) "campaign verdict" true
    (Faultinj.Campaign.fleet_passed r)

let () =
  Alcotest.run "fleet"
    [
      ( "governor",
        [
          Alcotest.test_case "degrades and restores" `Quick
            test_governor_degrades_and_restores;
          Alcotest.test_case "hysteresis never oscillates on a boundary" `Quick
            test_governor_hysteresis_boundary;
          Alcotest.test_case "preconditions raise" `Quick
            test_governor_preconditions;
          Alcotest.test_case "checker config keeps the parameter check" `Quick
            test_checker_config_keeps_parameter_check;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "parameter check halts in every rung" `Slow
            test_invariant_parameter_check_halts_in_every_state;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "overrun contained, never a hang" `Quick
            test_deadline_overrun_contained;
          Alcotest.test_case "both engines overrun identically" `Quick
            test_deadline_engines_agree;
        ] );
      ( "vm",
        [
          Alcotest.test_case "spec retry with fallback" `Slow
            test_vm_spec_retry_and_fallback;
        ] );
      ( "arena",
        [
          Alcotest.test_case "one arena across VMs and domains" `Slow
            test_arena_shared_across_vms_and_domains;
          Alcotest.test_case "failed build never evicts a healthy arena" `Slow
            test_spec_cache_failed_build_keeps_healthy_arena;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "report independent of jobs" `Slow
            test_fleet_jobs_independent;
          Alcotest.test_case "bulkhead isolation under faults" `Slow
            test_fleet_isolation_smoke;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "equivalent candidate fully agrees" `Slow
            test_shadow_full_agreement;
          Alcotest.test_case "shadow report independent of jobs" `Slow
            test_shadow_jobs_independent;
          Alcotest.test_case "candidate sync points differ" `Slow
            test_shadow_sync_points_differ;
          Alcotest.test_case "budget window semantics" `Quick
            test_budget_window;
        ] );
      ( "rollout",
        [
          Alcotest.test_case "catalogue gate covers GROWN-* entries" `Slow
            test_rollout_gate_covers_grown_cves;
          Alcotest.test_case "poisoned candidate rolled back and latched"
            `Slow test_rollout_poisoned_rolled_back_and_latched;
          Alcotest.test_case "equivalent retrained candidate promoted" `Slow
            test_rollout_equivalent_retrained_promoted;
        ] );
    ]
