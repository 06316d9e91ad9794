(* Tests for the guest-side validator (lib/guard): response-profile
   training determinism, transparency on the benign corpus, detection of
   envelope / storm departures injected at the interpreter's response
   seam, fail-closed containment of internal validator faults, and the
   hostile campaign smoke (with worker-count bit-identity) plus the
   guarded fleet-isolation run. *)

module Prng = Sedspec_util.Prng
module Resp = Guard.Resp
module Validator = Guard.Validator
module Campaign = Faultinj.Campaign

(* Spec builds are the expensive part; keep them small and shared via
   the single-flight cache. *)
let () = Metrics.Spec_cache.training_cases := 12

let dev = "sdhci"

module W = (val Workload.Samples.find dev : Workload.Samples.DEVICE_WORKLOAD)

let train_profile () =
  let m = W.make_machine W.paper_version in
  Resp.train m ~device:dev (W.trainer ~cases:8)

let test_training_deterministic () =
  let p1 = train_profile () and p2 = train_profile () in
  Alcotest.(check bool) "same corpus, same profile" true (p1 = p2);
  Alcotest.(check bool) "profile saw interactions" true
    (p1.Resp.trained_interactions > 0);
  Alcotest.(check bool) "some start kind is allowed" true
    (Array.exists Fun.id p1.Resp.starts)

let test_below_mask_envelope () =
  Alcotest.(check int64) "zero smears to zero" 0L (Resp.below_mask 0L);
  Alcotest.(check int64) "one bit smears down" 0xFFL (Resp.below_mask 0x80L);
  Alcotest.(check int64) "mid pattern" 0x7FFFL (Resp.below_mask 0x4321L);
  Alcotest.(check int64) "top bit covers everything" (-1L)
    (Resp.below_mask Int64.min_int)

let test_benign_transparent () =
  (* Profiles generalise by construction: re-running the corpus that
     trained them must not trip a single verdict. *)
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  let trainer = W.trainer ~cases:8 in
  for i = 0 to 7 do
    trainer.Sedspec.Pipeline.run_case m i
  done;
  let anoms = Validator.anomalies v in
  Validator.detach v;
  Alcotest.(check int) "no anomalies on the training corpus" 0
    (List.length anoms);
  Alcotest.(check bool) "interactions were observed" true
    (Validator.interactions v > 0)

(* Arm a response fault at the interpreter seam, soak briefly, and
   return the violations the validator recorded.  Verdicts may halt the
   machine mid-soak; that is containment working, not a test failure. *)
let violations_under fault =
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  Interp.set_response_fault (Vmm.Machine.interp_of m dev) (Some fault);
  let rng = Prng.create 0xD1CEL in
  (try
     W.soak_case ~mode:Workload.Samples.Sequential ~rng ~rare_prob:0.0 ~ops:6 m
   with _ -> ());
  Interp.set_response_fault (Vmm.Machine.interp_of m dev) None;
  let anoms = Validator.anomalies v in
  Validator.detach v;
  List.map (fun (a : Validator.anomaly) -> a.violation) anoms

let test_detects_corrupted_reads () =
  let vs =
    violations_under
      {
        Interp.no_response_fault with
        rf_read = Some (fun v -> Int64.logor v Int64.min_int);
      }
  in
  Alcotest.(check bool) "envelope violation raised" true
    (List.mem Validator.V_envelope vs)

let test_detects_irq_storm () =
  let vs =
    violations_under { Interp.no_response_fault with rf_irq_burst = 64 }
  in
  Alcotest.(check bool) "storm violation raised" true
    (List.exists
       (fun v -> v = Validator.V_irq_storm || v = Validator.V_event_storm)
       vs)

let test_fail_closed_containment () =
  (* An internal validator fault must never escape: the hook's exception
     is contained, surfaces as V_internal, and the checker-anomaly
     adapter renders it on the Internal_error diagnostic channel. *)
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  Validator.set_fault_hook v (Some (fun () -> failwith "injected"));
  let rng = Prng.create 0xFA117L in
  (try
     W.soak_case ~mode:Workload.Samples.Sequential ~rng ~rare_prob:0.0 ~ops:4 m
   with _ -> ());
  Alcotest.(check bool) "internal errors counted" true
    (Validator.internal_errors v > 0);
  let anoms = Validator.drain_as_checker_anomalies v in
  Validator.detach v;
  Alcotest.(check bool) "surfaced as anomalies" true (anoms <> []);
  List.iter
    (fun (a : Sedspec.Checker.anomaly) ->
      Alcotest.(check bool) "internal-error strategy" true
        (a.strategy = Sedspec.Checker.Internal_error);
      Alcotest.(check bool) "detail tagged guard:" true
        (String.length a.detail >= 7 && String.sub a.detail 0 7 = "guard: "))
    anoms

let test_reset_clears_state () =
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  Validator.set_fault_hook v (Some (fun () -> failwith "injected"));
  let rng = Prng.create 3L in
  (try
     W.soak_case ~mode:Workload.Samples.Sequential ~rng ~rare_prob:0.0 ~ops:3 m
   with _ -> ());
  Validator.reset v;
  Alcotest.(check int) "anomalies cleared" 0
    (List.length (Validator.anomalies v));
  Alcotest.(check int) "internal errors cleared" 0 (Validator.internal_errors v);
  (* The fault hook is cleared too: a post-reset soak stays clean. *)
  (try
     W.soak_case ~mode:Workload.Samples.Sequential ~rng ~rare_prob:0.0 ~ops:3 m
   with _ -> ());
  Alcotest.(check int) "no internal errors after reset" 0
    (Validator.internal_errors v);
  Validator.detach v

(* Closed interactions leave nothing to heal, however many response kinds
   they saw: the budget is for buffers an exception left open. *)
let test_heal_ignores_benign () =
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  let trainer = W.trainer ~cases:10 in
  let healed =
    List.init 10 (fun i ->
        trainer.Sedspec.Pipeline.run_case m i;
        Validator.heal v)
  in
  Validator.detach v;
  Alcotest.(check bool) "responses were checked" true
    (Validator.events_seen v > 0);
  Alcotest.(check (list bool)) "heal always succeeds" (List.init 10 (fun _ -> true))
    healed;
  Alcotest.(check int) "no heals counted" 0 (Validator.heals v)

(* A layer ahead of the validator halts in [before]: the device never
   runs and every [after] is skipped, but the validator gathered nothing. *)
let test_heal_ignores_blocked_request () =
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let remove_blocker =
    Vmm.Machine.add_interposer m dev
      {
        Vmm.Machine.before = (fun _ -> Vmm.Machine.Halt "blocked");
        after = (fun _ _ -> Vmm.Machine.Allow);
      }
  in
  let v = Validator.attach m ~device:dev ~profile in
  (W.trainer ~cases:1).Sedspec.Pipeline.run_case m 0;
  Alcotest.(check bool) "the request was blocked" true (Vmm.Machine.halted m);
  Alcotest.(check int) "the validator saw it" 1 (Validator.interactions v);
  Alcotest.(check bool) "nothing to heal" true (Validator.heal v);
  Alcotest.(check int) "no heal counted" 0 (Validator.heals v);
  Validator.detach v;
  remove_blocker ()

(* An exception that unwinds dispatch after a response event leaves the
   interaction open: [before] ran, [after] never did. *)
let test_heal_clears_stale_buffer () =
  let profile = train_profile () in
  let m = W.make_machine W.paper_version in
  let v = Validator.attach m ~device:dev ~profile in
  let remove =
    Interp.add_hooks (Vmm.Machine.interp_of m dev)
      { Interp.silent_hooks with Interp.on_response = (fun _ -> raise Exit) }
  in
  (match (W.trainer ~cases:1).Sedspec.Pipeline.run_case m 0 with
  | () -> Alcotest.fail "no response event unwound dispatch"
  | exception Exit -> ());
  remove ();
  Alcotest.(check bool) "stale buffer healed" true (Validator.heal v);
  Alcotest.(check int) "and counted" 1 (Validator.heals v);
  Alcotest.(check bool) "nothing left to heal" true (Validator.heal v);
  Alcotest.(check int) "counted once" 1 (Validator.heals v);
  Validator.detach v

let hostile_opts jobs =
  {
    Campaign.kind = Campaign.Hostile;
    devices = [ "fdc" ];
    plans_per_combo = 3;
    cases_per_plan = 1;
    ops_per_case = 3;
    min_injected = 1;
    seed = 5L;
    jobs;
  }

let hostile_smoke = lazy (Campaign.run (hostile_opts 1))

let test_hostile_campaign_smoke () =
  let r = Lazy.force hostile_smoke in
  let t = Campaign.totals r in
  Alcotest.(check bool) "corruptions injected" true (t.Campaign.injected > 0);
  Alcotest.(check int) "no escaped exceptions" 0 t.Campaign.escaped;
  Alcotest.(check int) "no silent fail-opens" 0 t.Campaign.fail_open;
  Alcotest.(check bool) "verdict passes" true (Campaign.passed r);
  Alcotest.(check int) "four combos for one device" 4
    (List.length r.Campaign.combos)

let test_hostile_jobs_bit_identical () =
  let render r = Sedspec_util.Json.to_string (Campaign.report_to_json r) in
  let r1 = render (Lazy.force hostile_smoke) in
  let r2 = render (Campaign.run (hostile_opts 2)) in
  Alcotest.(check string) "jobs 1 = jobs 2" r1 r2

(* Pins the report byte for byte: a reordered field or a moved RNG draw
   changes the digest. *)
let test_hostile_json_pinned () =
  let json =
    Sedspec_util.Json.to_string
      (Campaign.report_to_json (Lazy.force hostile_smoke))
  in
  Alcotest.(check string) "report JSON digest"
    "fac23b8e5ca187a51e47b8e0a776cc09"
    (Digest.to_hex (Digest.string json))

let test_hostile_isolation () =
  let r =
    Campaign.isolation Campaign.Hostile
      {
        Campaign.fl_vms = 3;
        fl_faulty = 1;
        fl_ticks = 4;
        fl_seed = 2L;
        fl_jobs = 1;
        fl_devices = [ "sdhci" ];
      }
  in
  Alcotest.(check bool) "faults fired" true (r.Campaign.fl_fired > 0);
  Alcotest.(check (list int)) "clean neighbours byte-identical" []
    r.Campaign.fl_clean_divergent;
  Alcotest.(check bool) "verdict passes" true (Campaign.fleet_passed r)

let test_cache_fail_closed_default () =
  (* Spec_cache.guard_profile's fail-closed discipline: an untrainable
     (device, version) pair gets the all-deny profile — guarded strictly
     rather than not at all — and the substitution is cached like a real
     profile, so waiters and repeat callers observe it without
     re-raising. *)
  let module Broken = struct
    let device_name = "sdhci(untrainable)"
    let paper_version = W.paper_version
    let device = W.device
    let make_machine = W.make_machine

    let trainer ~cases =
      let t = W.trainer ~cases in
      {
        t with
        Sedspec.Pipeline.run_case =
          (fun _ _ -> failwith "benign corpus unavailable");
      }

    let soak_case = W.soak_case
    let ops_per_hour = W.ops_per_hour
  end in
  let before = Metrics.Spec_cache.guard_fail_closed () in
  let builds_before = Metrics.Spec_cache.guard_builds () in
  let p = Metrics.Spec_cache.guard_profile (module Broken) W.paper_version in
  Alcotest.(check bool) "substituted profile is fail-closed" true
    (Resp.is_fail_closed p);
  Alcotest.(check int) "substitution counted" (before + 1)
    (Metrics.Spec_cache.guard_fail_closed ());
  Alcotest.(check int) "no successful build counted" builds_before
    (Metrics.Spec_cache.guard_builds ());
  (* Cached: asking again serves the substitution without retraining. *)
  let p' = Metrics.Spec_cache.guard_profile (module Broken) W.paper_version in
  Alcotest.(check bool) "substitution is cached" true (p == p');
  Alcotest.(check int) "no second substitution" (before + 1)
    (Metrics.Spec_cache.guard_fail_closed ());
  (* A trainable pair is unaffected: real training still lands. *)
  let ok =
    Metrics.Spec_cache.guard_profile
      (module W : Workload.Samples.DEVICE_WORKLOAD)
      W.paper_version
  in
  Alcotest.(check bool) "trainable pair gets a real profile" false
    (Resp.is_fail_closed ok)

let () =
  Alcotest.run "guard"
    [
      ( "profile",
        [
          Alcotest.test_case "training is deterministic" `Quick
            test_training_deterministic;
          Alcotest.test_case "below_mask envelope" `Quick
            test_below_mask_envelope;
          Alcotest.test_case "untrainable pair fails closed" `Quick
            test_cache_fail_closed_default;
        ] );
      ( "validator",
        [
          Alcotest.test_case "transparent on benign corpus" `Quick
            test_benign_transparent;
          Alcotest.test_case "detects corrupted read-returns" `Quick
            test_detects_corrupted_reads;
          Alcotest.test_case "detects IRQ storms" `Quick test_detects_irq_storm;
          Alcotest.test_case "contains internal faults fail-closed" `Quick
            test_fail_closed_containment;
          Alcotest.test_case "reset clears state and hook" `Quick
            test_reset_clears_state;
          Alcotest.test_case "heal ignores benign traffic" `Quick
            test_heal_ignores_benign;
          Alcotest.test_case "heal ignores a blocked request" `Quick
            test_heal_ignores_blocked_request;
          Alcotest.test_case "heal clears a stale buffer" `Quick
            test_heal_clears_stale_buffer;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "campaign smoke passes" `Quick
            test_hostile_campaign_smoke;
          Alcotest.test_case "jobs 1 = jobs 2 bit-identical" `Quick
            test_hostile_jobs_bit_identical;
          Alcotest.test_case "fleet isolation protects neighbours" `Quick
            test_hostile_isolation;
          Alcotest.test_case "report JSON pinned" `Quick
            test_hostile_json_pinned;
        ] );
    ]
