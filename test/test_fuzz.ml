(* Tests for the coverage-guided differential fuzzer.

   The expensive properties are exercised on the FDC only (one spec
   build, shared via the cache); serialization and recording cover all
   five devices because they need no specification at all. *)

module Input = Fuzz.Input
module Exec = Fuzz.Exec
module Loop = Fuzz.Loop
module C = Sedspec.Checker

let devices = [ "fdc"; "sdhci"; "ehci"; "pcnet"; "scsi" ]

(* Seed corpora are recorded once and shared across tests. *)
let corpus = Hashtbl.create 8

let seed_corpus device =
  match Hashtbl.find_opt corpus device with
  | Some c -> c
  | None ->
    let c = Input.seed_corpus ~device in
    Hashtbl.replace corpus device c;
    c

(* --- Serialization ------------------------------------------------------ *)

let input_equal (a : Input.t) (b : Input.t) =
  a.device = b.device
  && Devices.Qemu_version.to_string a.version
     = Devices.Qemu_version.to_string b.version
  && a.origin = b.origin && a.steps = b.steps

let test_seed_corpus_roundtrip () =
  List.iter
    (fun device ->
      let seeds = seed_corpus device in
      Alcotest.(check bool)
        (device ^ " has seeds") true
        (List.length seeds >= 3);
      match Input.corpus_of_string (Input.corpus_to_string seeds) with
      | Error msg -> Alcotest.fail (device ^ ": reload failed: " ^ msg)
      | Ok seeds' ->
        Alcotest.(check int)
          (device ^ " count") (List.length seeds) (List.length seeds');
        List.iter2
          (fun a b ->
            Alcotest.(check bool) (device ^ " input roundtrips") true
              (input_equal a b))
          seeds seeds')
    devices

let test_roundtrip_int64_extremes () =
  (* Values are serialized as unsigned hex, so the full 64-bit range —
     including negative int64 bit patterns — must survive. *)
  let input =
    {
      Input.device = "fdc";
      version = Devices.Qemu_version.v 2 3 0;
      origin = Input.Mutant;
      steps =
        [|
          Input.Req
            {
              handler = "h";
              params =
                [ ("a", -1L); ("b", Int64.min_int); ("c", 0L); ("d", 42L) ];
            };
          Input.Guest_write { addr = 0xFFFFFFFFFFFFFFF0L; data = "\x00\xff*" };
        |];
    }
  in
  match Input.corpus_of_string (Input.to_string input) with
  | Error msg -> Alcotest.fail ("reload failed: " ^ msg)
  | Ok [ input' ] ->
    Alcotest.(check bool) "extreme values roundtrip" true
      (input_equal input input')
  | Ok _ -> Alcotest.fail "expected exactly one input"

let test_parser_rejects_garbage () =
  let expect_error s =
    match Input.corpus_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("parsed garbage: " ^ String.escaped s)
  in
  expect_error "input fdc\nend\n";
  expect_error "input fdc 2.3.0 benign\nq bogus\nend\n";
  expect_error "input fdc 2.3.0 benign\nr h a=1\n";
  (* missing end *)
  expect_error "input fdc 2.3.0 sideways\nend\n";
  (* bad origin *)
  Alcotest.(check bool) "empty corpus is fine" true
    (Input.corpus_of_string "" = Ok [])

let test_fault_steps_roundtrip () =
  let input =
    {
      Input.device = "fdc";
      version = Devices.Qemu_version.v 2 3 0;
      origin = Input.Mutant;
      steps =
        [|
          Input.Fault (Input.F_guest_xor 0xDEADBEEFL);
          Input.Fault (Input.F_guest_short 0xA0000L);
          Input.Fault Input.F_guest_clear;
          Input.Fault Input.F_walk_raise;
          Input.Fault (Input.F_walk_delay 1024);
          Input.Fault (Input.F_resp_read 0xFEEDFACEL);
          Input.Fault (Input.F_resp_store (-1L));
          Input.Fault (Input.F_resp_dma (-512));
          Input.Fault (Input.F_resp_irq 32);
          Input.Fault Input.F_resp_clear;
        |];
    }
  in
  match Input.corpus_of_string (Input.to_string input) with
  | Error msg -> Alcotest.fail ("reload failed: " ^ msg)
  | Ok [ input' ] ->
    Alcotest.(check bool) "fault steps roundtrip" true (input_equal input input')
  | Ok _ -> Alcotest.fail "expected exactly one input"

(* qcheck property: [of_string . to_string] is the identity over the
   whole corpus grammar — request, guest-write and fault lines alike —
   with values drawn from a u64-boundary-heavy distribution (the
   serializer prints unsigned hex, so negative int64 bit patterns are
   the interesting corner) and payloads including the empty string
   (which serializes to a two-word [g] line). *)
let corpus_roundtrip_prop =
  let open QCheck in
  let u64 =
    Gen.frequency
      [
        ( 2,
          Gen.oneofl
            [
              0L;
              1L;
              -1L;
              Int64.max_int;
              Int64.min_int;
              0xFFL;
              0xFFFFFFFFL;
              0x100000000L;
              0x7FFFFFFFFFFFFFFEL;
            ] );
        (2, Gen.map Int64.of_int (Gen.int_bound 0xFFFF));
        (1, Gen.map Int64.of_int Gen.int);
      ]
  in
  let ident =
    (* Handler and parameter names: non-empty, no whitespace, '=', ','. *)
    Gen.map
      (fun (c, s) -> String.make 1 c ^ s)
      (Gen.pair
         (Gen.char_range 'a' 'z')
         (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_bound 6)))
  in
  let gen_step =
    Gen.frequency
      [
        ( 4,
          Gen.map2
            (fun handler params -> Input.Req { handler; params })
            ident
            (Gen.list_size (Gen.int_bound 4) (Gen.pair ident u64)) );
        ( 3,
          Gen.map2
            (fun addr data -> Input.Guest_write { addr; data })
            u64
            (Gen.string_size (Gen.int_bound 24)) );
        (1, Gen.map (fun m -> Input.Fault (Input.F_guest_xor m)) u64);
        (1, Gen.map (fun l -> Input.Fault (Input.F_guest_short l)) u64);
        (1, Gen.return (Input.Fault Input.F_guest_clear));
        (1, Gen.return (Input.Fault Input.F_walk_raise));
        ( 1,
          Gen.map
            (fun s -> Input.Fault (Input.F_walk_delay s))
            (Gen.int_bound 10_000) );
        (1, Gen.map (fun m -> Input.Fault (Input.F_resp_read m)) u64);
        (1, Gen.map (fun m -> Input.Fault (Input.F_resp_store m)) u64);
        ( 1,
          (* DMA deltas are signed decimals on the wire. *)
          Gen.map
            (fun d -> Input.Fault (Input.F_resp_dma d))
            (Gen.int_range (-8192) 8192) );
        (1, Gen.map (fun b -> Input.Fault (Input.F_resp_irq b)) (Gen.int_bound 64));
        (1, Gen.return (Input.Fault Input.F_resp_clear));
      ]
  in
  let gen_input =
    Gen.map2
      (fun steps origin ->
        {
          Input.device = "fdc";
          version = Devices.Qemu_version.v 2 3 0;
          origin;
          steps = Array.of_list steps;
        })
      (Gen.list_size (Gen.int_bound 20) gen_step)
      (Gen.oneofl
         [ Input.Benign; Input.Mutant; Input.Attack "CVE-2015-3456" ])
  in
  QCheck.Test.make ~name:"corpus grammar roundtrips" ~count:500
    (QCheck.make
       ~print:(fun i -> Input.to_string i)
       gen_input)
    (fun input ->
      match Input.corpus_of_string (Input.to_string input) with
      | Ok [ input' ] -> input_equal input input'
      | Ok _ -> QCheck.Test.fail_report "expected exactly one input"
      | Error msg -> QCheck.Test.fail_reportf "reload failed: %s" msg)

(* Scheduled faults must not break the differential oracle: guest
   corruption is a pure function of the address and walk faults fire
   before engine dispatch, so both engines observe identical effects —
   including a contained walk-raise, which shows up as the same anomaly
   and halt on both sides. *)
let test_fault_steps_no_divergence () =
  let seed = List.hd (seed_corpus "fdc") in
  let prefix =
    Array.sub seed.Input.steps 0 (min 12 (Array.length seed.Input.steps))
  in
  let steps =
    Array.concat
      [
        [|
          Input.Fault (Input.F_walk_delay 64);
          Input.Fault (Input.F_guest_xor 0xDEADBEEFL);
        |];
        prefix;
        [| Input.Fault Input.F_guest_clear; Input.Fault Input.F_walk_raise |];
        prefix;
        (* Response-direction faults are interp effects, visible to both
           engines identically. *)
        [|
          Input.Fault (Input.F_resp_read 0x5A5A5A5AL);
          Input.Fault (Input.F_resp_dma (-1));
          Input.Fault (Input.F_resp_irq 3);
        |];
        prefix;
        [| Input.Fault Input.F_resp_clear |];
        prefix;
      ]
  in
  let input = { seed with Input.origin = Input.Mutant; steps } in
  let o = Exec.evaluate input in
  List.iter
    (fun (d : Exec.divergence) ->
      Printf.eprintf "divergence %s/%s: %s\n" d.Exec.d_profile d.Exec.d_field
        d.Exec.d_detail)
    o.Exec.divergences;
  Alcotest.(check int) "no divergences" 0 (List.length o.Exec.divergences);
  Alcotest.(check bool) "no crash" true (o.Exec.crashed = None)

(* Pooled replay contexts keep the checker configuration they were made
   with, so two configurations that differ only in the internal-error
   policy must not share one.  A walk raise on the first request halts a
   fail-closed replay there and only warns under fail-open, whichever ran
   first. *)
let test_replay_pool_keeps_each_config () =
  let seed = List.hd (seed_corpus "fdc") in
  let input =
    {
      seed with
      Input.origin = Input.Mutant;
      steps = Array.append [| Input.Fault Input.F_walk_raise |] seed.Input.steps;
    }
  in
  let closed, _ = Exec.run ~config:C.default_config input in
  let opened, _ =
    Exec.run
      ~config:{ C.default_config with C.on_internal_error = C.Fail_open_warn }
      input
  in
  Alcotest.(check (option int)) "fail-closed halts at the first request"
    (Some 1) closed.Exec.o_halted_at;
  Alcotest.(check (option int)) "fail-open runs to completion" None
    opened.Exec.o_halted_at;
  Alcotest.(check bool) "fail-open warns" true (opened.Exec.o_warnings <> [])

(* --- ddmin (pure) ------------------------------------------------------- *)

let test_ddmin_minimises () =
  (* Interesting = contains both 3 and 17: ddmin must find the exact
     two-element subsequence, preserving order. *)
  let steps = Array.init 20 Fun.id in
  let test arr = Array.mem 3 arr && Array.mem 17 arr in
  let out = Loop.ddmin ~test steps in
  Alcotest.(check (array int)) "minimal subsequence" [| 3; 17 |] out

let test_ddmin_respects_budget () =
  let evals = ref 0 in
  let steps = Array.init 64 Fun.id in
  let test arr =
    incr evals;
    Array.mem 63 arr
  in
  ignore (Loop.ddmin ~max_evals:5 ~test steps);
  Alcotest.(check bool) "stopped at the eval budget" true (!evals <= 5)

let test_ddmin_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||]
    (Loop.ddmin ~test:(fun _ -> true) [||]);
  Alcotest.(check (array int)) "singleton kept" [| 9 |]
    (Loop.ddmin ~test:(fun a -> Array.mem 9 a) [| 9 |])

(* --- The loop on FDC ---------------------------------------------------- *)

let fdc_options ~budget ~seed =
  { (Loop.default_options ~device:"fdc") with Loop.budget; seed }

let test_benign_fuzz_no_divergence_and_growth () =
  let r = Loop.run { (fdc_options ~budget:200 ~seed:42L) with Loop.jobs = 2 } in
  Alcotest.(check int) "no divergent inputs" 0 r.Loop.r_divergent_inputs;
  Alcotest.(check int) "no crashes" 0 r.Loop.r_crashes;
  Alcotest.(check int) "executed the budget" 200 r.Loop.r_executed;
  Alcotest.(check bool) "coverage grew over the seeds" true
    (r.Loop.r_nodes + r.Loop.r_edges > r.Loop.r_seed_nodes + r.Loop.r_seed_edges);
  Alcotest.(check bool) "corpus retained the seeds" true
    (List.length r.Loop.r_corpus >= r.Loop.r_seed_corpus)

let test_jobs_determinism () =
  (* The whole observable output — report JSON and corpus text — must be
     bit-identical regardless of the domain count. *)
  let run jobs =
    let r = Loop.run { (fdc_options ~budget:64 ~seed:7L) with Loop.jobs } in
    (Loop.report_to_string r, Input.corpus_to_string r.Loop.r_corpus)
  in
  let report1, corpus1 = run 1 in
  let report4, corpus4 = run 4 in
  Alcotest.(check string) "report jobs 1 = jobs 4" report1 report4;
  Alcotest.(check string) "corpus jobs 1 = jobs 4" corpus1 corpus4

(* A deliberately broken right-hand checker: the interpreted engine with a
   tiny walk budget trips the cycle-budget anomaly on walks the production
   configuration completes.  The differential oracle must catch it and the
   shrinker must reduce the reproducer to a handful of steps. *)
let broken_profile ~walk_limit =
  {
    Exec.pname = "seeded-bug";
    left = C.default_config;
    right =
      {
        C.default_config with
        C.engine = C.Interpreted;
        walk_limit;
      };
    left_version = None;
    right_version = None;
    lenient = false;
  }

let test_seeded_divergence_found_and_shrunk () =
  let opts =
    {
      (fdc_options ~budget:64 ~seed:3L) with
      Loop.profiles = [ broken_profile ~walk_limit:4 ];
      jobs = 2;
    }
  in
  let r = Loop.run opts in
  Alcotest.(check bool) "divergence detected" true
    (r.Loop.r_divergent_inputs > 0);
  Alcotest.(check bool) "finding reported" true (r.Loop.r_findings <> []);
  List.iter
    (fun (f : Loop.finding) ->
      Alcotest.(check string) "profile" "seeded-bug" f.Loop.f_profile;
      Alcotest.(check bool)
        (Printf.sprintf "reproducer shrunk to %d steps (<= 8)"
           (Array.length f.Loop.f_input.Input.steps))
        true
        (Array.length f.Loop.f_input.Input.steps <= 8);
      (* The minimized reproducer still reproduces. *)
      let o = Exec.evaluate ~profiles:opts.Loop.profiles f.Loop.f_input in
      Alcotest.(check bool) "reproducer re-diverges" true
        (List.exists
           (fun (d : Exec.divergence) ->
             d.Exec.d_profile = "seeded-bug" && d.Exec.d_field = f.Loop.f_field)
           o.Exec.divergences))
    r.Loop.r_findings

(* ddmin fidelity under *several* simultaneously-diverging keys: the
   shrinker's interestingness predicate must target the finding's own
   (profile, field), not "any divergence" — otherwise a shrink can slide
   onto a different oracle field (or a looser profile) with a smaller
   core and report a witness that no longer reproduces what it claims.
   Two broken profiles with different walk budgets diverge on different
   input sets; every reported witness must re-diverge on exactly its own
   key, and must never exceed the recorded original length. *)
let test_ddmin_shrinks_preserve_their_finding () =
  let profiles =
    [
      { (broken_profile ~walk_limit:4) with Exec.pname = "tight" };
      { (broken_profile ~walk_limit:6) with Exec.pname = "loose" };
    ]
  in
  let opts =
    { (fdc_options ~budget:64 ~seed:3L) with Loop.profiles; jobs = 2 }
  in
  let r = Loop.run opts in
  Alcotest.(check bool) "findings reported" true (r.Loop.r_findings <> []);
  List.iter
    (fun (f : Loop.finding) ->
      Alcotest.(check bool)
        (Printf.sprintf "shrink (%d steps) <= original (%d steps)"
           (Array.length f.Loop.f_input.Input.steps)
           f.Loop.f_original_len)
        true
        (Array.length f.Loop.f_input.Input.steps <= f.Loop.f_original_len);
      let o = Exec.evaluate ~profiles f.Loop.f_input in
      Alcotest.(check bool)
        (Printf.sprintf "witness re-diverges on its own key (%s, %s)"
           f.Loop.f_profile f.Loop.f_field)
        true
        (List.exists
           (fun (d : Exec.divergence) ->
             d.Exec.d_profile = f.Loop.f_profile
             && d.Exec.d_field = f.Loop.f_field)
           o.Exec.divergences))
    r.Loop.r_findings

let test_fp_candidate_reported () =
  (* A benign-origin input the spec was never trained on: the checker
     flags it, and because the origin is benign the report must surface
     it as a false-positive candidate rather than a plain anomaly. *)
  let rare =
    {
      Input.device = "fdc";
      version = (let w = Workload.Samples.find "fdc" in
                 let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
                 W.paper_version);
      origin = Input.Benign;
      steps =
        [|
          (* DUMPREG (0x0E) is a legal FDC command the benign trainer
             never issues. *)
          Input.Req
            {
              handler = "write";
              params =
                [ ("addr", 0x3F5L); ("offset", 5L); ("size", 1L); ("data", 0x0EL) ];
            };
        |];
    }
  in
  let r =
    Loop.run
      { (fdc_options ~budget:0 ~seed:1L) with Loop.extra_seeds = [ rare ] }
  in
  Alcotest.(check bool) "fp candidate surfaced" true (r.Loop.r_fp_candidates <> [])

(* One deterministic pass per device under the engine differential —
   the cross-device smoke the FDC-only loop tests above leave out. *)
let test_engine_oracle_all_devices () =
  List.iter
    (fun device ->
      let r =
        Loop.run
          {
            (Loop.default_options ~device) with
            Loop.budget = 24;
            seed = 5L;
            profiles = Exec.default_profiles;
          }
      in
      Alcotest.(check int) (device ^ ": no divergences") 0
        r.Loop.r_divergent_inputs;
      Alcotest.(check int) (device ^ ": no crashes") 0 r.Loop.r_crashes)
    devices

(* --- Cross-version deviation locator ------------------------------------ *)

module Locate = Fuzz.Locate
module Delta = Fuzz.Delta

(* Acceptance: on the scsi catalogue (three CVEs, three distinct version
   pairs) a fixed-seed, small-budget locate run must localize every
   patch — the statically changed block set is contained in the
   dynamically localized one — and carry at least one minimized witness
   at <= 25% of its original sequence length per CVE. *)
let test_locate_localizes_and_shrinks () =
  let opts =
    {
      Locate.default_options with
      Locate.device = Some "scsi";
      budget = 8;
      jobs = 2;
    }
  in
  let r = Locate.run opts in
  Alcotest.(check int) "three scsi CVEs" 3 (List.length r.Delta.deltas);
  List.iter
    (fun (d : Delta.cve_delta) ->
      Alcotest.(check bool) (d.Delta.cd_cve ^ ": static diff non-empty") true
        (d.Delta.cd_static <> []);
      Alcotest.(check bool) (d.Delta.cd_cve ^ ": localized") true
        d.Delta.cd_localized;
      Alcotest.(check bool) (d.Delta.cd_cve ^ ": has witnesses") true
        (d.Delta.cd_witnesses <> []);
      let best =
        List.fold_left
          (fun acc (w : Delta.witness) ->
            min acc
              (float_of_int (Array.length w.Delta.w_input.Input.steps)
              /. float_of_int (max 1 w.Delta.w_original_len)))
          infinity d.Delta.cd_witnesses
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: best shrink ratio %.3f <= 0.25" d.Delta.cd_cve
           best)
        true (best <= 0.25))
    r.Delta.deltas

(* The delta report — JSON and pretty table — must be bit-identical for
   any [--jobs], like every other fuzzer artifact. *)
let test_locate_jobs_determinism () =
  let base =
    { Locate.default_options with Locate.cve = Some "CVE-2015-5158"; budget = 8 }
  in
  let render jobs =
    let r = Locate.run { base with Locate.jobs } in
    (Delta.to_string r, Format.asprintf "%a" Delta.pp r)
  in
  let json1, pp1 = render 1 in
  let json4, pp4 = render 4 in
  Alcotest.(check string) "json jobs 1 = jobs 4" json1 json4;
  Alcotest.(check string) "table jobs 1 = jobs 4" pp1 pp4

let test_report_json_shape () =
  let r = Loop.run (fdc_options ~budget:16 ~seed:11L) in
  let json = Loop.report_to_string r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (let n = String.length needle and m = String.length json in
         let rec go i =
           i + n <= m && (String.sub json i n = needle || go (i + 1))
         in
         go 0))
    [
      "\"device\"";
      "\"seed\"";
      "\"executed\"";
      "\"coverage\"";
      "\"new_nodes\"";
      "\"new_edges\"";
      "\"divergences\"";
      "\"fp_candidates\"";
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "input",
        [
          Alcotest.test_case "seed corpus roundtrips (all devices)" `Quick
            test_seed_corpus_roundtrip;
          Alcotest.test_case "int64 extremes roundtrip" `Quick
            test_roundtrip_int64_extremes;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_parser_rejects_garbage;
          Alcotest.test_case "fault steps roundtrip" `Quick
            test_fault_steps_roundtrip;
          QCheck_alcotest.to_alcotest corpus_roundtrip_prop;
          Alcotest.test_case "fault steps keep the oracle green" `Quick
            test_fault_steps_no_divergence;
          Alcotest.test_case "replay pool keeps each configuration" `Quick
            test_replay_pool_keeps_each_config;
        ] );
      ( "ddmin",
        [
          Alcotest.test_case "minimises to the core" `Quick test_ddmin_minimises;
          Alcotest.test_case "respects the eval budget" `Quick
            test_ddmin_respects_budget;
          Alcotest.test_case "empty and singleton" `Quick
            test_ddmin_empty_and_singleton;
        ] );
      ( "loop",
        [
          Alcotest.test_case "benign fuzz: clean and growing" `Quick
            test_benign_fuzz_no_divergence_and_growth;
          Alcotest.test_case "jobs 1 = jobs 4 bit-identical" `Quick
            test_jobs_determinism;
          Alcotest.test_case "seeded divergence found and shrunk" `Quick
            test_seeded_divergence_found_and_shrunk;
          Alcotest.test_case "shrinks preserve their own finding" `Quick
            test_ddmin_shrinks_preserve_their_finding;
          Alcotest.test_case "fp candidate reported" `Quick
            test_fp_candidate_reported;
          Alcotest.test_case "report json shape" `Quick test_report_json_shape;
        ] );
      ( "locate",
        [
          Alcotest.test_case "scsi catalogue localizes, witnesses shrink" `Slow
            test_locate_localizes_and_shrinks;
          Alcotest.test_case "delta report jobs 1 = jobs 4 bit-identical" `Slow
            test_locate_jobs_determinism;
        ] );
      ( "all-device-smoke",
        [
          Alcotest.test_case "engine oracle" `Slow
            test_engine_oracle_all_devices;
        ] );
    ]
