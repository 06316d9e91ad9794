(* sedspec — command-line front end.

   Subcommands: list, inspect, attack, soak, coverage.  See README.md. *)

open Cmdliner

let setup_training cases = Metrics.Spec_cache.training_cases := cases

let training_cases_arg =
  let doc = "Benign training cases used to build specifications." in
  Arg.(value & opt int 24 & info [ "training-cases" ] ~docv:"N" ~doc)

let device_arg =
  let doc = "Device: fdc, ehci, pcnet, sdhci, scsi or virtio." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DEVICE" ~doc)

(* Flags several subcommands share; each takes its default and doc. *)

let json_arg doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let seed_arg default doc =
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

let device_flag kind default doc =
  Arg.(value & opt kind default & info [ "device" ] ~docv:"DEVICE" ~doc)

let write_json json body =
  Option.iter (fun file -> Sedspec_util.Atomic_file.write file body) json

let find_device name =
  try Workload.Samples.find name
  with Not_found ->
    Printf.eprintf "unknown device %s (fdc|ehci|pcnet|sdhci|scsi|virtio)\n" name;
    exit 2

(* "all" or a comma-separated list of device names. *)
let device_list arg =
  if arg = "all" then
    List.map
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        W.device_name)
      Workload.Samples.all
  else begin
    let ds = String.split_on_char ',' arg in
    List.iter (fun d -> ignore (find_device d)) ds;
    ds
  end

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Devices (QEMU version used by the paper's case studies):";
    List.iter
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        Printf.printf "  %-8s v%s\n" W.device_name
          (Devices.Qemu_version.to_string W.paper_version))
      Workload.Samples.all;
    print_endline "";
    print_endline "Attack catalogue:";
    List.iter
      (fun (a : Attacks.Attack.t) ->
        Printf.printf "  %-16s %-6s %s\n" a.cve a.device a.description)
      Attacks.Attack.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List devices and the CVE catalogue")
    Term.(const run $ const ())

(* --- inspect ------------------------------------------------------------ *)

let inspect_cmd =
  let save_arg =
    let doc = "Save the trained specification to $(docv) (Sedspec.Persist format)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let dot_arg =
    let doc = "Write a Graphviz rendering of the ES-CFG to $(docv)." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let run device cases save dot =
    setup_training cases;
    let w = find_device device in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let built = Metrics.Spec_cache.built (module W) W.paper_version in
    Format.printf "device %s at QEMU v%s@." W.device_name
      (Devices.Qemu_version.to_string W.paper_version);
    Format.printf "@.%a@." Sedspec.Pipeline.pp_built built;
    Format.printf "@.device state parameter selection:@.%a@." Sedspec.Selection.pp
      (Sedspec.Es_cfg.selection built.spec);
    Format.printf "content-tracked buffers: %s@."
      (String.concat ", "
         (Sedspec.Es_cfg.selection built.spec).Sedspec.Selection.tracked_buffers);
    Format.printf "@.commands in the access table:@.";
    List.iter
      (fun ((bref, v) : Sedspec.Es_cfg.cmd_key) ->
        Format.printf "  %a = 0x%Lx@." Devir.Program.pp_bref bref v)
      (List.sort compare (Sedspec.Es_cfg.commands built.spec));
    (match save with
    | Some path -> (
      match Sedspec.Persist.save built.spec path with
      | Ok () -> Format.printf "@.specification saved to %s@." path
      | Error msg ->
        Printf.eprintf "cannot save specification: %s\n" msg;
        exit 1)
    | None -> ());
    match dot with
    | Some path ->
      Sedspec.Viz.save_dot built.spec path;
      Format.printf "ES-CFG dot graph written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Train and print a device's execution specification")
    Term.(const run $ device_arg $ training_cases_arg $ save_arg $ dot_arg)

(* --- attack ------------------------------------------------------------- *)

let jobs_arg =
  let doc = "Worker domains used to fan independent experiments out in parallel." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let attack_cmd =
  let cve_arg =
    let doc = "CVE id, e.g. CVE-2015-3456, or 'all'." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CVE" ~doc)
  in
  let run cve cases jobs =
    setup_training cases;
    let attacks =
      if cve = "all" then Attacks.Attack.all
      else
        try [ Attacks.Attack.find cve ]
        with Not_found ->
          Printf.eprintf "unknown CVE %s (try 'list')\n" cve;
          exit 2
    in
    List.iter
      (fun r ->
        Format.printf "%a@." Metrics.Case_study.pp_result r;
        Format.printf "  matches paper: %b@.@."
          (Metrics.Case_study.matches_expectation r))
      (Sedspec_util.Runner.map ~jobs Metrics.Case_study.run attacks)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Replay a CVE exploit under each check strategy (Table III)")
    Term.(const run $ cve_arg $ training_cases_arg $ jobs_arg)

(* --- soak --------------------------------------------------------------- *)

let soak_cmd =
  let hours_arg =
    let doc = "Simulated soak hours." in
    Arg.(value & opt int 10 & info [ "hours" ] ~docv:"H" ~doc)
  in
  let cases_per_hour_arg =
    let doc = "Test cases per simulated hour." in
    Arg.(value & opt int 40 & info [ "cases-per-hour" ] ~docv:"N" ~doc)
  in
  let run device hours cases_per_hour seed cases =
    setup_training cases;
    let w = find_device device in
    let r =
      Metrics.Fpr.soak ~seed ~cases_per_hour ~checkpoint_hours:[ hours ] w
    in
    Format.printf "%a@." Metrics.Fpr.pp_result r
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run the benign false-positive soak (Tables II/III) on a device")
    Term.(const run $ device_arg $ hours_arg $ cases_per_hour_arg
          $ seed_arg 42L "PRNG seed." $ training_cases_arg)

(* --- coverage ------------------------------------------------------------ *)

let coverage_cmd =
  let run device cases =
    setup_training cases;
    let w = find_device device in
    let r = Metrics.Coverage.measure w in
    Format.printf "%a@." Metrics.Coverage.pp_result r
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Measure effective coverage of the training corpus (Table III)")
    Term.(const run $ device_arg $ training_cases_arg)

(* --- dump-device ----------------------------------------------------------- *)

let dump_device_cmd =
  let version_arg =
    let doc = "QEMU version to build the model at (default: the paper's)." in
    Arg.(value & opt (some string) None & info [ "qemu" ] ~docv:"VER" ~doc)
  in
  let run device version =
    let w = find_device device in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let version =
      match version with
      | Some v -> Devices.Qemu_version.of_string v
      | None -> W.paper_version
    in
    let m = W.make_machine version in
    let program = Interp.program (Vmm.Machine.interp_of m W.device_name) in
    print_string (Devir.Pretty.program_to_string program)
  in
  Cmd.v
    (Cmd.info "dump-device"
       ~doc:"Render a device model as pseudo-C (handlers, blocks, layout)")
    Term.(const run $ device_arg $ version_arg)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let budget_arg =
    let doc = "Mutant evaluations per device." in
    Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc = "Candidates derived per generation." in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let max_steps_arg =
    let doc = "Mutant length cap in interaction steps." in
    Arg.(value & opt int 48 & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let corpus_out_arg =
    let doc = "Save the final corpus to $(docv) (with 'all', one file per \
               device: $(docv).DEVICE)." in
    Arg.(value & opt (some string) None & info [ "corpus-out" ] ~docv:"FILE" ~doc)
  in
  let corpus_in_arg =
    let doc = "Extra seed inputs loaded from a corpus file." in
    Arg.(value & opt (some string) None & info [ "corpus-in" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc = "Replay the inputs in $(docv) under the differential oracle and \
               report per-input verdicts instead of fuzzing." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let load_corpus file =
    match Fuzz.Input.load_corpus file with
    | Ok inputs -> inputs
    | Error msg ->
      Printf.eprintf "cannot load corpus %s: %s\n" file msg;
      exit 2
  in
  let replay_file file =
    let inputs = load_corpus file in
    let failed = ref 0 in
    List.iteri
      (fun i (input : Fuzz.Input.t) ->
        let o = Fuzz.Exec.evaluate input in
        let verdict =
          match (o.Fuzz.Exec.divergences, o.Fuzz.Exec.crashed) with
          | [], None -> "ok"
          | _ ->
            incr failed;
            String.concat "; "
              ((match o.Fuzz.Exec.crashed with
               | Some e -> [ "crash: " ^ e ]
               | None -> [])
              @ List.map
                  (fun (d : Fuzz.Exec.divergence) ->
                    Printf.sprintf "%s/%s: %s" d.d_profile d.d_field d.d_detail)
                  o.Fuzz.Exec.divergences)
        in
        Printf.printf "input %d (%s, %s, %d steps): %s\n" i input.device
          (Fuzz.Input.origin_to_string input.origin)
          (Array.length input.steps) verdict)
      inputs;
    if !failed > 0 then exit 1
  in
  let fuzz_devices device budget seed jobs batch max_steps json
      corpus_out corpus_in =
    let devices =
      if device = "all" then
        List.map
          (fun w ->
            let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
            W.device_name)
          Workload.Samples.all
      else begin
        ignore (find_device device);
        [ device ]
      end
    in
    let extra_seeds =
      match corpus_in with Some f -> load_corpus f | None -> []
    in
    let reports =
      List.map
        (fun dev ->
          let opts =
            {
              (Fuzz.Loop.default_options ~device:dev) with
              Fuzz.Loop.seed;
              budget;
              jobs;
              batch;
              max_steps;
              extra_seeds =
                List.filter
                  (fun (i : Fuzz.Input.t) -> i.device = dev)
                  extra_seeds;
            }
          in
          let r = Fuzz.Loop.run opts in
          Printf.printf
            "%s: executed %d, corpus %d (%d seeds), coverage %d nodes / %d \
             edges (+%d/+%d over seeds), %d divergent inputs, %d crashes, %d \
             fp candidates\n"
            r.Fuzz.Loop.r_device r.r_executed (List.length r.r_corpus)
            r.r_seed_corpus r.r_nodes r.r_edges (r.r_nodes - r.r_seed_nodes)
            (r.r_edges - r.r_seed_edges) r.r_divergent_inputs r.r_crashes
            (List.length r.r_fp_candidates);
          List.iter
            (fun (f : Fuzz.Loop.finding) ->
              Printf.printf "  divergence [%s/%s] %s (%d-step reproducer)\n"
                f.f_profile f.f_field f.f_detail
                (Array.length f.f_input.Fuzz.Input.steps))
            r.r_findings;
          (match corpus_out with
          | Some base ->
            let file = if device = "all" then base ^ "." ^ dev else base in
            Fuzz.Input.save_corpus file r.r_corpus
          | None -> ());
          r)
        devices
    in
    write_json json
      (match reports with
      | [ r ] -> Fuzz.Loop.report_to_string r
      | rs ->
        Sedspec_util.Json.to_string
          (Sedspec_util.Json.List (List.map Fuzz.Loop.report_to_json rs)));
    if
      List.exists
        (fun r -> r.Fuzz.Loop.r_divergent_inputs > 0 || r.r_crashes > 0)
        reports
    then exit 1
  in
  let run device budget seed jobs batch max_steps json corpus_out corpus_in
      replay cases =
    setup_training cases;
    match replay with
    | Some file -> replay_file file
    | None ->
      fuzz_devices device budget seed jobs batch max_steps json corpus_out
        corpus_in
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided differential fuzzing of the ES-Checker")
    Term.(const run
          $ device_flag Arg.string "fdc"
              "Device to fuzz (fdc, ehci, pcnet, sdhci, scsi, virtio) or 'all'."
          $ budget_arg $ seed_arg 0L "Master PRNG seed." $ jobs_arg $ batch_arg
          $ max_steps_arg $ json_arg "Write the JSON report to $(docv)."
          $ corpus_out_arg $ corpus_in_arg $ replay_arg $ training_cases_arg)

(* --- locate ---------------------------------------------------------------- *)

let locate_cmd =
  let cve_arg =
    let doc = "Restrict to one CVE id, e.g. CVE-2021-3409." in
    Arg.(value & opt (some string) None & info [ "cve" ] ~docv:"CVE" ~doc)
  in
  let budget_arg =
    let doc = "Mutant evaluations per CVE." in
    Arg.(value & opt int 128 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let max_steps_arg =
    let doc = "Mutant length cap in interaction steps." in
    Arg.(value & opt int 48 & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let check_arg =
    let doc =
      "Exit non-zero unless every selected CVE is localized (all its \
       statically patched blocks appear in the fuzzer's changed-block set)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run device cve budget seed jobs max_steps json check cases =
    setup_training cases;
    let opts =
      {
        Fuzz.Locate.default_options with
        Fuzz.Locate.device;
        cve;
        budget;
        seed;
        jobs;
        max_steps;
      }
    in
    if Fuzz.Locate.targets opts = [] then begin
      Printf.eprintf "no catalogued CVE matches the filters (try 'list')\n";
      exit 2
    end;
    let report = Fuzz.Locate.run opts in
    Format.printf "%a@." Fuzz.Delta.pp report;
    write_json json (Fuzz.Delta.to_string report);
    if
      check
      && List.exists
           (fun (d : Fuzz.Delta.cve_delta) -> not d.Fuzz.Delta.cd_localized)
           report.Fuzz.Delta.deltas
    then exit 1
  in
  Cmd.v
    (Cmd.info "locate"
       ~doc:
         "Locate behaviour deviations across each CVE's vulnerable/patched \
          version pair")
    Term.(const run
          $ device_flag Arg.(some string) None
              "Restrict to one device's CVEs (fdc, ehci, pcnet, sdhci, scsi, \
               virtio)."
          $ cve_arg $ budget_arg $ seed_arg 0L "Master PRNG seed." $ jobs_arg
          $ max_steps_arg
          $ json_arg "Write the behaviour-delta JSON report to $(docv)."
          $ check_arg $ training_cases_arg)

(* --- fleet ---------------------------------------------------------------- *)

let fleet_cmd =
  let vms_arg =
    let doc = "Fleet size (protected VMs)." in
    Arg.(value & opt int 8 & info [ "vms" ] ~docv:"N" ~doc)
  in
  let ticks_arg =
    let doc = "Supervision periods per VM." in
    Arg.(value & opt int 32 & info [ "ticks" ] ~docv:"N" ~doc)
  in
  let ops_arg =
    let doc = "Logical workload operations per tick." in
    Arg.(value & opt int 12 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Watchdog step budget per checker walk (0 disables)." in
    Arg.(value & opt int 50_000 & info [ "deadline" ] ~docv:"STEPS" ~doc)
  in
  let run device vms ticks ops seed jobs deadline json training =
    setup_training training;
    let opts =
      {
        Fleet.Supervisor.vms;
        ticks;
        seed;
        jobs;
        devices = device_list device;
        vm_opts =
          (fun device ->
            {
              (Fleet.Vm.default_options ~device) with
              Fleet.Vm.ops_per_tick = ops;
              deadline = (if deadline <= 0 then None else Some deadline);
            });
      }
    in
    let r = Fleet.Supervisor.run opts in
    Format.printf "%a" Fleet.Supervisor.pp_report r;
    write_json json (Fleet.Supervisor.report_to_json r)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve a fleet of protected VMs under the deadline watchdog, \
          error-budget governor and bulkhead isolation")
    Term.(const run
          $ device_flag Arg.string "all"
              "Comma-separated devices assigned round-robin (fdc, ehci, pcnet, \
               sdhci, scsi) or 'all'."
          $ vms_arg $ ticks_arg $ ops_arg
          $ seed_arg 1L "Fleet seed (per-VM seeds derive from it; jobs-independent)."
          $ jobs_arg $ deadline_arg
          $ json_arg "Write the health-snapshot JSON to $(docv)."
          $ training_cases_arg)

(* --- evolve ---------------------------------------------------------------- *)

let evolve_cmd =
  let recipe_arg =
    let doc =
      "Candidate recipe: 'retrained' or 'retrained:N' (retrain on N benign \
       cases), or 'poisoned:CVE-XXXX-YYYY' (a deliberately looser candidate \
       whose training corpus treats that CVE's attack as benign — the \
       ladder must reject it)."
    in
    Arg.(value & opt string "retrained" & info [ "recipe" ] ~docv:"RECIPE" ~doc)
  in
  let vms_arg =
    let doc = "Fleet size per rollout phase." in
    Arg.(value & opt int 4 & info [ "vms" ] ~docv:"N" ~doc)
  in
  let canary_vms_arg =
    let doc = "Candidate-enforcing subset during the canary phase." in
    Arg.(value & opt int 1 & info [ "canary-vms" ] ~docv:"N" ~doc)
  in
  let shadow_vms_arg =
    let doc =
      "Shadow-walking subset (the shadow-overhead budget); 0 uses the \
       ladder default."
    in
    Arg.(value & opt int 0 & info [ "shadow-vms" ] ~docv:"N" ~doc)
  in
  let shadow_ticks_arg =
    let doc = "Supervision periods in the shadow phase." in
    Arg.(value & opt int 12 & info [ "shadow-ticks" ] ~docv:"N" ~doc)
  in
  let canary_ticks_arg =
    let doc = "Supervision periods in the canary phase." in
    Arg.(value & opt int 8 & info [ "canary-ticks" ] ~docv:"N" ~doc)
  in
  let expect_arg =
    let doc =
      "Exit nonzero unless the final rung is $(docv) (shadow, canary, \
       promoted or rolled-back) — for CI smokes."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"RUNG" ~doc)
  in
  let poisoned_recipe ~cve ~device =
    let attack =
      try Attacks.Attack.find cve
      with Not_found ->
        Printf.eprintf "unknown CVE %s (try 'list')\n" cve;
        exit 2
    in
    if attack.Attacks.Attack.device <> device then begin
      Printf.eprintf "%s targets %s, not %s\n" cve attack.Attacks.Attack.device
        device;
      exit 2
    end;
    let w = find_device device in
    let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
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
            ~provenance:
              (Sedspec.Es_cfg.Retrained trainer.Sedspec.Pipeline.cases);
          b);
    }
  in
  let parse_recipe recipe device w =
    match recipe with
    | "retrained" ->
      Fleet.Rollout.retrained w ~cases:!Metrics.Spec_cache.training_cases
    | _ -> (
      match String.index_opt recipe ':' with
      | Some i -> (
        let kind = String.sub recipe 0 i in
        let arg = String.sub recipe (i + 1) (String.length recipe - i - 1) in
        match kind with
        | "retrained" -> (
          match int_of_string_opt arg with
          | Some n when n >= 1 -> Fleet.Rollout.retrained w ~cases:n
          | _ ->
            Printf.eprintf "retrained:N needs N >= 1 (got %s)\n" arg;
            exit 2)
        | "poisoned" -> poisoned_recipe ~cve:arg ~device
        | _ ->
          Printf.eprintf
            "unknown recipe %s (retrained[:N]|poisoned:CVE)\n" recipe;
          exit 2)
      | None ->
        Printf.eprintf
          "unknown recipe %s (retrained[:N]|poisoned:CVE)\n" recipe;
        exit 2)
  in
  let run device recipe vms canary_vms shadow_vms shadow_ticks canary_ticks
      seed jobs json expect training =
    setup_training training;
    let w = find_device device in
    let rc = parse_recipe recipe device w in
    let default = Fleet.Rollout.default_config ~device in
    let shadow_vms =
      if shadow_vms = 0 then min default.Fleet.Rollout.shadow_vms vms
      else shadow_vms
    in
    let cfg =
      {
        default with
        Fleet.Rollout.vms;
        canary_vms;
        shadow_vms;
        shadow_ticks;
        canary_ticks;
        seed;
        jobs;
      }
    in
    let o = Fleet.Rollout.run cfg rc in
    Format.printf "%a" Fleet.Rollout.pp_outcome o;
    write_json json
      (Sedspec_util.Json.to_string (Fleet.Rollout.outcome_to_json o));
    match expect with
    | Some want ->
      let got = Fleet.Rollout.rung_to_string o.Fleet.Rollout.o_final in
      if got <> want then begin
        Printf.eprintf "evolve: expected final rung %s, got %s\n" want got;
        exit 1
      end
    | None -> ()
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Climb a candidate specification through the rollout ladder \
          (shadow -> canary -> promoted) with catalogue-gated automatic \
          rollback")
    Term.(const run $ device_arg $ recipe_arg $ vms_arg $ canary_vms_arg
          $ shadow_vms_arg $ shadow_ticks_arg $ canary_ticks_arg
          $ seed_arg 1L
              "Rollout seed (per-VM seeds derive from it; jobs-independent)."
          $ jobs_arg
          $ json_arg "Write the rollout outcome JSON to $(docv)."
          $ expect_arg $ training_cases_arg)

(* --- faultinj / hostile ------------------------------------------------- *)

(* The substrate and hostile-device campaigns share one command line:
   [kind] picks the plan pool and whether the guest-side validator runs,
   and only the hostile campaign has a floor on injections. *)
let campaign_cmd kind ~name ~doc ~device ~plans ~cases ~ops ~min_injected =
  let int_arg name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let min_injected_arg =
    match min_injected with
    | None -> Term.const 0
    | Some default ->
      int_arg "min-injected" default
        "Fail unless at least $(docv) corruptions were injected."
  in
  let run devices plans cases ops min_injected seed jobs json vms faulty ticks
      training =
    setup_training training;
    let devices = device_list devices in
    let report pp to_json passed r =
      Format.printf "%a" pp r;
      write_json json (Sedspec_util.Json.to_string (to_json r));
      if not (passed r) then exit 1
    in
    let module C = Faultinj.Campaign in
    if vms > 0 then
      report C.pp_fleet_report C.fleet_report_to_json C.fleet_passed
        (C.isolation kind
           {
             C.fl_vms = vms;
             fl_faulty = faulty;
             fl_ticks = ticks;
             fl_seed = seed;
             fl_jobs = jobs;
             fl_devices = devices;
           })
    else
      report C.pp_report C.report_to_json C.passed
        (C.run
           {
             C.kind;
             devices;
             plans_per_combo = plans;
             cases_per_plan = cases;
             ops_per_case = ops;
             min_injected;
             seed;
             jobs;
           })
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run
          $ device_flag Arg.string device
              "Comma-separated devices (fdc, ehci, pcnet, sdhci, scsi, virtio) \
               or 'all'."
          $ int_arg "plans" plans
              "Fault plans per device-mode-engine combination."
          $ int_arg "cases" cases "Soak cases run while each plan is armed."
          $ int_arg "ops" ops "Logical operations per soak case."
          $ min_injected_arg
          $ seed_arg 1L "Master PRNG seed (plans and workloads replay exactly)."
          $ jobs_arg $ json_arg "Write the JSON report to $(docv)."
          $ int_arg "isolation-vms" 0
              "Run the fleet bulkhead-isolation campaign over $(docv) VMs \
               instead of the per-combo campaign (0 keeps the per-combo \
               campaign)."
          $ int_arg "isolation-faulty" 3
              "Fleet members carrying an armed fault (isolation mode)."
          $ int_arg "isolation-ticks" 24
              "Supervision periods per VM (isolation mode)."
          $ training_cases_arg)

let faultinj_cmd =
  campaign_cmd Faultinj.Campaign.Substrate ~name:"faultinj"
    ~doc:
      "Deterministic fault-injection campaign against the checker's \
       containment (exits 1 on any escaped exception or silent fail-open); \
       --isolation-vms switches to the fleet bulkhead-isolation campaign"
    ~device:"all" ~plans:12 ~cases:3 ~ops:6 ~min_injected:None

let hostile_cmd =
  campaign_cmd Faultinj.Campaign.Hostile ~name:"hostile"
    ~doc:
      "Hostile-device campaign: seeded corruption of device responses \
       (read returns, DMA lengths, completion stores, IRQ storms) under \
       the guest-side validator; exits 1 on any escaped exception, silent \
       fail-open, or too few injections; --isolation-vms switches to the \
       guarded fleet-isolation campaign"
    ~device:"sdhci,virtio" ~plans:36 ~cases:6 ~ops:10
    ~min_injected:(Some 5000)

(* --- check-spec ----------------------------------------------------------- *)

let check_spec_cmd =
  let file_arg =
    let doc = "Saved specification file." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run device file =
    let w = find_device device in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let m = W.make_machine W.paper_version in
    let program = Interp.program (Vmm.Machine.interp_of m W.device_name) in
    match Sedspec.Persist.load ~program file with
    | Error msg ->
      Printf.eprintf "load failed: %s
" msg;
      exit 1
    | Ok spec ->
      Format.printf "%a@." Sedspec.Es_cfg.pp_stats spec;
      let checker = Sedspec.Checker.attach m ~spec W.device_name in
      let trainer = W.trainer ~cases:4 in
      for case = 0 to 3 do
        trainer.Sedspec.Pipeline.run_case m case
      done;
      let anoms = Sedspec.Checker.drain_anomalies checker in
      Format.printf "benign replay under the loaded spec: %d anomalies@."
        (List.length anoms);
      if anoms <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check-spec"
       ~doc:"Load a saved specification and verify benign traffic passes")
    Term.(const run $ device_arg $ file_arg)

let () =
  let doc = "SEDSpec: securing emulated devices by enforcing execution specification" in
  let info = Cmd.info "sedspec" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            inspect_cmd;
            attack_cmd;
            soak_cmd;
            coverage_cmd;
            fuzz_cmd;
            locate_cmd;
            fleet_cmd;
            evolve_cmd;
            faultinj_cmd;
            hostile_cmd;
            check_spec_cmd;
            dump_device_cmd;
          ]))
