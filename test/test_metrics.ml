(* Tests for the experiment harnesses.  The headline test reproduces the
   paper's entire Table III detection matrix. *)

let () = Metrics.Spec_cache.training_cases := 12

let test_case_studies_match_paper () =
  List.iter
    (fun (r : Metrics.Case_study.result) ->
      if not (Metrics.Case_study.matches_expectation r) then
        Alcotest.failf "%s diverges from the paper:@.%s" r.attack.cve
          (Format.asprintf "%a" Metrics.Case_study.pp_result r))
    (Metrics.Case_study.run_all ())

let test_fpr_soak_tracks_rare_probability () =
  let w = Workload.Samples.find "ehci" in
  let r =
    Metrics.Fpr.soak ~seed:3L ~cases_per_hour:30 ~checkpoint_hours:[ 1; 2 ]
      ~rare_prob:0.5 w
  in
  Alcotest.(check int) "total cases" 60 r.total_cases;
  (* With a 50% rare tail roughly half the cases must be flagged. *)
  Alcotest.(check bool) "flagged cases near expectation" true
    (r.fp_cases > 15 && r.fp_cases < 45);
  Alcotest.(check int) "no parameter-check FPs" 0 r.param_check_fps;
  (* Checkpoints accumulate. *)
  match r.checkpoints with
  | [ c1; c2 ] ->
    Alcotest.(check bool) "monotone" true (c2.fp_cases >= c1.fp_cases);
    Alcotest.(check int) "case counts" 30 c1.cases
  | _ -> Alcotest.fail "two checkpoints expected"

let test_fpr_paper_constants () =
  Alcotest.(check bool) "per-device FPR targets" true
    (List.for_all
       (fun d ->
         let f = Metrics.Fpr.paper_fpr d in
         f > 0.0 && f < 0.01)
       [ "fdc"; "ehci"; "pcnet"; "sdhci"; "scsi" ])

let test_coverage_bounds () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let r = Metrics.Coverage.measure ~seed:11L ~fuzz_cases:20 (module W) in
      Alcotest.(check bool)
        (W.device_name ^ " coverage plausible")
        true
        (r.effective > 0.75 && r.effective <= 1.0);
      Alcotest.(check bool) "fuzz reaches at least training" true (r.fuzz_blocks > 0))
    Workload.Samples.all

let test_perf_sanity () =
  (* Check the harness produces positive, same-order numbers.  Timing on a
     shared machine is noisy, so use a non-trivial volume, keep the best of
     two runs per point, and accept a wide band — this is a smoke test of
     the measurement plumbing, not a performance assertion (the bench does
     those with proper repetition). *)
  let run () =
    Metrics.Perf.storage_sweep ~total_bytes:65536 ~device:"scsi" ~write:false ()
  in
  let a = run () and b = run () in
  List.iter2
    (fun (pa : Metrics.Perf.storage_point) (pb : Metrics.Perf.storage_point) ->
      Alcotest.(check bool) "positive times" true
        (pa.base_s > 0.0 && pa.protected_s > 0.0);
      let best = max pa.norm_throughput pb.norm_throughput in
      Alcotest.(check bool) "same order of magnitude" true
        (best > 0.1 && best < 10.0))
    a b

let test_net_harness_sanity () =
  let p = Metrics.Perf.pcnet_bandwidth ~total_bytes:(256 * 1024) Metrics.Perf.Udp_up in
  Alcotest.(check bool) "bandwidth positive" true
    (p.base_mbps > 0.0 && p.protected_mbps > 0.0);
  let base, prot, _ = Metrics.Perf.pcnet_ping ~count:30 () in
  Alcotest.(check bool) "ping positive" true (base > 0.0 && prot > 0.0)

(* The checker adds no access, so both sides of a point make the same VM
   exits and the priced part of their times is equal. *)
let test_sides_count_same_exits () =
  let same what ((base : Metrics.Perf.side), (prot : Metrics.Perf.side)) =
    Alcotest.(check bool) (what ^ ": exits counted") true (base.exits > 0);
    Alcotest.(check int) (what ^ ": protected = base") base.exits prot.exits
  in
  List.iter
    (fun write ->
      same
        (if write then "fdc write" else "fdc read")
        (Metrics.Perf.storage_sides ~total_bytes:8192 ~device:"fdc" ~write
           ~block:4096))
    [ false; true ];
  List.iter
    (fun kind ->
      same
        (Metrics.Perf.net_kind_to_string kind)
        (Metrics.Perf.net_sides ~total_bytes:(20 * 1460) kind))
    Metrics.Perf.[ Tcp_up; Tcp_down; Udp_up; Udp_down ]

let test_baseline_verdict_list () =
  Alcotest.(check int) "five nioh CVEs" 5 (List.length Metrics.Baseline.nioh_cves);
  List.iter
    (fun cve ->
      Alcotest.(check bool) (cve ^ " exists in catalogue") true
        (match Attacks.Attack.find cve with _ -> true | exception Not_found -> false))
    Metrics.Baseline.nioh_cves

let test_spec_cache_single_flight () =
  (* Four domains race on a cold (device, version) key; the mutex +
     single-flight build must hand every caller the same build (an
     unsynchronised cache would build twice and return distinct values,
     or corrupt the table outright). *)
  let w = Workload.Samples.find "sdhci" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = Devices.Qemu_version.latest in
  match
    Sedspec_util.Runner.map ~jobs:4
      (fun () -> Metrics.Spec_cache.built (module W) version)
      [ (); (); (); () ]
  with
  | b :: rest ->
    List.iter
      (fun b' -> Alcotest.(check bool) "one build shared by all" true (b == b'))
      rest
  | [] -> assert false

let test_parallel_soak_determinism () =
  (* The tentpole invariant: fanning the per-device soaks out across
     domains changes wall-clock only.  Every field of every result —
     counters, checkpoints, FPR floats — must equal the serial run. *)
  let soak name =
    Metrics.Fpr.soak ~seed:5L ~cases_per_hour:8 ~checkpoint_hours:[ 1; 2 ]
      (Workload.Samples.find name)
  in
  let devices = [ "fdc"; "pcnet"; "ehci" ] in
  let serial = Sedspec_util.Runner.map ~jobs:1 soak devices in
  let parallel = Sedspec_util.Runner.map ~jobs:4 soak devices in
  Alcotest.(check bool) "jobs 1 = jobs 4" true (serial = parallel);
  Alcotest.(check (list string)) "order preserved" devices
    (List.map (fun (r : Metrics.Fpr.result) -> r.device) parallel)

let test_case_studies_parallel_deterministic () =
  let serial = Metrics.Case_study.run_all () in
  let parallel = Metrics.Case_study.run_all ~jobs:4 () in
  List.iter2
    (fun (a : Metrics.Case_study.result) (b : Metrics.Case_study.result) ->
      Alcotest.(check string) "same attack order" a.attack.cve b.attack.cve;
      Alcotest.(check bool) (a.attack.cve ^ " same verdicts") true
        (List.map
           (fun (o : Metrics.Case_study.strategy_outcome) ->
             (o.strategy, o.detected, o.blocked))
           a.per_strategy
        = List.map
            (fun (o : Metrics.Case_study.strategy_outcome) ->
              (o.strategy, o.detected, o.blocked))
            b.per_strategy))
    serial parallel

let test_spec_cache_transient_failure_retries () =
  (* A build that raises must evict its single-flight marker so a retry
     can claim the slot: four domains race on a cold key whose first
     build fails, every caller retries under backoff, and all four must
     end up sharing the one successful build.  The fault hook fires
     exactly twice — the failing build and the succeeding rebuild — so
     a third firing would mean the eviction leaked an extra build. *)
  let w = Workload.Samples.find "pcnet" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = Devices.Qemu_version.latest in
  let calls = Atomic.make 0 in
  Metrics.Spec_cache.set_build_fault
    (Some
       (fun device ->
         if device = "pcnet" then
           if Atomic.fetch_and_add calls 1 = 0 then
             failwith "injected transient build failure"));
  Fun.protect
    ~finally:(fun () -> Metrics.Spec_cache.set_build_fault None)
    (fun () ->
      let results =
        Sedspec_util.Runner.map ~jobs:4
          (fun i ->
            Sedspec_util.Backoff.retry ~seed:(Int64.of_int i) ~max_attempts:3
              (fun ~attempt:_ ->
                try Ok (Metrics.Spec_cache.built (module W) version)
                with e -> Error (Printexc.to_string e)))
          [ 0; 1; 2; 3 ]
      in
      let builds =
        List.map
          (function
            | Ok (b, _spent) -> b
            | Error f ->
              Alcotest.failf "caller exhausted retries: %s"
                f.Sedspec_util.Backoff.error)
          results
      in
      (match builds with
      | b :: rest ->
        List.iter
          (fun b' ->
            Alcotest.(check bool) "all callers share the rebuild" true (b == b'))
          rest
      | [] -> assert false);
      Alcotest.(check int) "hook fired for fail + rebuild only" 2
        (Atomic.get calls);
      (* The slot now memoises the successful rebuild. *)
      let again = Metrics.Spec_cache.built (module W) version in
      Alcotest.(check bool) "later call hits the cache" true
        (again == List.hd builds);
      Alcotest.(check int) "no further builds" 2 (Atomic.get calls))

(* A cached build keeps only what enforcement reads: the spec, its
   compiled arena and the phase-1 analyses.  Training logs are folded
   into the ES-CFG case by case and dropped, so sdhci's build stays far
   below the hundreds of MB its logs would take. *)
let test_spec_cache_holds_no_training_data () =
  let w = Workload.Samples.find "sdhci" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let b = Metrics.Spec_cache.built (module W) W.paper_version in
  let words = Obj.reachable_words (Obj.repr b) in
  Alcotest.(check bool)
    (Printf.sprintf "sdhci build holds %d words (< 1M)" words)
    true (words < 1_000_000)

let test_spec_cache_memoises () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let b1 = Metrics.Spec_cache.built (module W) W.paper_version in
  let b2 = Metrics.Spec_cache.built (module W) W.paper_version in
  Alcotest.(check bool) "same build returned" true (b1 == b2);
  (* A different version is a different cache entry. *)
  let b3 = Metrics.Spec_cache.built (module W) Devices.Qemu_version.latest in
  Alcotest.(check bool) "different version, different build" true (b1 != b3)

let () =
  Alcotest.run "metrics"
    [
      ( "case-study",
        [
          Alcotest.test_case "Table III matrix reproduces" `Slow
            test_case_studies_match_paper;
        ] );
      ( "fpr",
        [
          Alcotest.test_case "soak tracks rare probability" `Slow
            test_fpr_soak_tracks_rare_probability;
          Alcotest.test_case "paper constants" `Quick test_fpr_paper_constants;
        ] );
      ( "coverage",
        [ Alcotest.test_case "bounds on all devices" `Slow test_coverage_bounds ] );
      ( "perf",
        [
          Alcotest.test_case "storage harness sanity" `Slow test_perf_sanity;
          Alcotest.test_case "network harness sanity" `Slow test_net_harness_sanity;
          Alcotest.test_case "both sides count the same exits" `Quick
            test_sides_count_same_exits;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "baseline catalogue" `Quick test_baseline_verdict_list;
          Alcotest.test_case "spec cache memoises" `Quick test_spec_cache_memoises;
          Alcotest.test_case "spec cache single-flight" `Quick
            test_spec_cache_single_flight;
          Alcotest.test_case "spec cache transient failure retries" `Quick
            test_spec_cache_transient_failure_retries;
          Alcotest.test_case "cached build holds no training data" `Quick
            test_spec_cache_holds_no_training_data;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "soaks deterministic across jobs" `Slow
            test_parallel_soak_determinism;
          Alcotest.test_case "case studies deterministic across jobs" `Slow
            test_case_studies_parallel_deterministic;
        ] );
    ]
