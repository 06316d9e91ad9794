(* Tests for the deterministic fault-injection harness (lib/faultinj):
   plan generation, the pure corruption primitives, spec-corruption
   detection, and a small end-to-end campaign whose report must be
   bit-identical across worker counts and free of escapes. *)

module Prng = Sedspec_util.Prng
module Plan = Faultinj.Plan
module Inject = Faultinj.Inject
module Campaign = Faultinj.Campaign

(* Spec builds are the expensive part; keep them small and shared via
   the single-flight cache. *)
let () = Metrics.Spec_cache.training_cases := 12

let test_plan_generation_deterministic () =
  let gen seed = Plan.generate (Prng.create seed) ~n:24 in
  Alcotest.(check bool) "same seed, same plans" true (gen 7L = gen 7L);
  Alcotest.(check bool) "different seeds differ" true (gen 7L <> gen 8L);
  let plans = gen 7L in
  Alcotest.(check int) "n plans" 24 (List.length plans);
  (* The generator draws every parameter from the published pools. *)
  List.iter
    (fun (p : Plan.t) ->
      match p.site with
      | Plan.Guest_corrupt { mask } ->
        Alcotest.(check bool) "mask from pool" true (Array.mem mask Plan.masks)
      | Plan.Guest_short { limit } ->
        Alcotest.(check bool) "limit from pool" true
          (Array.mem limit Plan.limits)
      | Plan.Walk_delay { spin; _ } ->
        Alcotest.(check bool) "spin from pool" true (Array.mem spin Plan.spins)
      | Plan.Resp_dma_len { delta } ->
        Alcotest.(check bool) "delta from pool" true
          (Array.mem delta Plan.resp_deltas)
      | Plan.Resp_irq_storm { burst } ->
        Alcotest.(check bool) "burst from pool" true
          (Array.mem burst Plan.bursts)
      | Plan.Resp_read_corrupt { mask } | Plan.Resp_store_corrupt { mask } ->
        Alcotest.(check bool) "resp mask from pool" true
          (Array.mem mask Plan.masks)
      | Plan.Spec_bit_flip _ | Plan.Spec_truncate | Plan.Walk_raise _
      | Plan.Guard_raise _ -> ())
    plans

let test_corrupt_byte_pure_and_partial () =
  (* The corruption pattern is a pure function of (addr, mask): the same
     address always corrupts (or not) the same way, a selected address
     really changes the byte, and only a strict subset is selected. *)
  let mask = 0xDEADBEEFL in
  let changed = ref 0 in
  for a = 0 to 4095 do
    let addr = Int64.of_int a in
    let b = a land 0xFF in
    let b1 = Inject.corrupt_byte ~mask addr b in
    let b2 = Inject.corrupt_byte ~mask addr b in
    if b1 <> b2 then Alcotest.failf "impure at addr %d" a;
    if b1 < 0 || b1 > 255 then Alcotest.failf "out of byte range at %d" a;
    if b1 <> b then incr changed
  done;
  Alcotest.(check bool) "corrupts some addresses" true (!changed > 0);
  Alcotest.(check bool) "not every address" true (!changed < 4096)

let test_short_byte_boundary () =
  let limit = 0x1000L in
  Alcotest.(check int) "below the limit passes through" 0xAB
    (Inject.short_byte ~limit 0xFFFL 0xAB);
  Alcotest.(check int) "at the limit reads zero" 0
    (Inject.short_byte ~limit 0x1000L 0xAB);
  (* Unsigned comparison: a top-bit address is above any small limit. *)
  Alcotest.(check int) "negative bit pattern is high, not low" 0
    (Inject.short_byte ~limit Int64.min_int 0xAB)

let test_corrupt_spec_never_silent () =
  (* Every corrupted spec either fails to load (crc or parse) or reloads
     to a semantically identical spec; a silently different spec would
     be enforcement drift. *)
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let built = Metrics.Spec_cache.built w W.paper_version in
  let text = Sedspec.Persist.to_string built.Sedspec.Pipeline.spec in
  let program = Sedspec.Es_cfg.program built.Sedspec.Pipeline.spec in
  let rng = Prng.create 11L in
  let detected = ref 0 in
  for _ = 1 to 60 do
    let site =
      if Prng.chance rng 0.5 then
        Plan.Spec_bit_flip { flips = 1 + Prng.int rng 4 }
      else Plan.Spec_truncate
    in
    let corrupted = Inject.corrupt_spec rng site text in
    match Sedspec.Persist.of_string ~program corrupted with
    | Error _ -> incr detected
    | Ok spec' ->
      if Sedspec.Persist.to_string spec' <> text then
        Alcotest.failf "silent corruption accepted (%s)"
          (Plan.site_to_string site)
  done;
  Alcotest.(check bool) "most corruptions detected" true (!detected > 30)

let smoke_opts jobs =
  {
    Campaign.kind = Campaign.Substrate;
    devices = [ "fdc" ];
    plans_per_combo = 4;
    cases_per_plan = 2;
    ops_per_case = 3;
    min_injected = 0;
    seed = 5L;
    jobs;
  }

let smoke = lazy (Campaign.run (smoke_opts 1))

let test_campaign_contains_everything () =
  let r = Lazy.force smoke in
  let t = Campaign.totals r in
  Alcotest.(check bool) "faults fired" true (t.Campaign.injected > 0);
  Alcotest.(check int) "no escaped exceptions" 0 t.Campaign.escaped;
  Alcotest.(check int) "no silent fail-opens" 0 t.Campaign.fail_open;
  Alcotest.(check int) "no silent spec corruption" 0 t.Campaign.spec_silent;
  Alcotest.(check bool) "verdict passes" true (Campaign.passed r);
  (* Both modes and both engines actually ran. *)
  Alcotest.(check int) "four combos for one device" 4 (List.length r.Campaign.combos)

let test_campaign_jobs_bit_identical () =
  let render r = Sedspec_util.Json.to_string (Campaign.report_to_json r) in
  let r1 = render (Lazy.force smoke) in
  let r2 = render (Campaign.run (smoke_opts 2)) in
  Alcotest.(check string) "jobs 1 = jobs 2" r1 r2

(* Pins the report byte for byte: a reordered field or a moved RNG draw
   changes the digest. *)
let test_campaign_json_pinned () =
  let json =
    Sedspec_util.Json.to_string (Campaign.report_to_json (Lazy.force smoke))
  in
  Alcotest.(check string) "report JSON digest"
    "d5fade67c65ff0f6a2e46103dfefa16c"
    (Digest.to_hex (Digest.string json))

let () =
  Alcotest.run "faultinj"
    [
      ( "plan",
        [
          Alcotest.test_case "generation is seed-deterministic" `Quick
            test_plan_generation_deterministic;
        ] );
      ( "inject",
        [
          Alcotest.test_case "corrupt_byte is pure and partial" `Quick
            test_corrupt_byte_pure_and_partial;
          Alcotest.test_case "short_byte unsigned boundary" `Quick
            test_short_byte_boundary;
          Alcotest.test_case "spec corruption is never silent" `Quick
            test_corrupt_spec_never_silent;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "contains every fault" `Quick
            test_campaign_contains_everything;
          Alcotest.test_case "jobs 1 = jobs 2 bit-identical" `Quick
            test_campaign_jobs_bit_identical;
          Alcotest.test_case "report JSON pinned" `Quick
            test_campaign_json_pinned;
        ] );
    ]
