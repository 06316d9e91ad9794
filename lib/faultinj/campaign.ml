module Prng = Sedspec_util.Prng
module Runner = Sedspec_util.Runner
module Json = Sedspec_util.Json
module C = Sedspec.Checker

type options = {
  devices : string list;
  plans_per_combo : int;
  cases_per_plan : int;
  ops_per_case : int;
  seed : int64;
  jobs : int;
}

type combo_report = {
  device : string;
  mode : C.mode;
  engine : C.engine;
  injected : int;
  contained : int;
  escaped : int;
  fail_open : int;
  halts : int;
  warns : int;
  rollbacks : int;
  breaker_trips : int;
  heals : int;
  spec_detected : int;
  spec_benign : int;
  spec_silent : int;
}

type report = { options : options; combos : combo_report list }

type combo = { cb_device : string; cb_mode : C.mode; cb_engine : C.engine }

(* Return the recycled machine/checker pair to boot state between plans
   (the fuzzer's scrub, inlined: faultinj must not depend on fuzz). *)
let scrub ~device machine checker =
  Vmm.Machine.resume machine;
  Vmm.Machine.clear_warnings machine;
  Vmm.Machine.clear_traps machine;
  Vmm.Guest_mem.clear (Vmm.Machine.ram machine);
  Devir.Arena.reset (Interp.arena (Vmm.Machine.interp_of machine device));
  Vmm.Irq.lower_line (Vmm.Machine.irq machine) device;
  Vmm.Irq.clear_counts (Vmm.Machine.irq machine);
  C.reset checker

let run_combo ~seed opts { cb_device = device; cb_mode; cb_engine } =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = W.paper_version in
  let spec_text =
    Sedspec.Persist.to_string (Metrics.Spec_cache.built w version).Sedspec.Pipeline.spec
  in
  let config =
    { C.default_config with mode = cb_mode; engine = cb_engine }
  in
  let machine, checker =
    Metrics.Spec_cache.fresh_protected_machine ~config ~vmexit_cost:0 w version
  in
  let program = Interp.program (Vmm.Machine.interp_of machine device) in
  let rng = Prng.create seed in
  let plans = Plan.generate rng ~n:opts.plans_per_combo in
  let injected = ref 0
  and contained = ref 0
  and escaped = ref 0
  and fail_open = ref 0
  and halts = ref 0
  and warns = ref 0
  and rollbacks = ref 0
  and breaker_trips = ref 0
  and heals = ref 0
  and spec_detected = ref 0
  and spec_benign = ref 0
  and spec_silent = ref 0 in
  List.iter
    (fun (plan : Plan.t) ->
      let prng = Prng.split rng in
      match plan.site with
      | Plan.Spec_bit_flip _ | Plan.Spec_truncate -> (
        incr injected;
        let corrupted = Inject.corrupt_spec prng plan.site spec_text in
        match Sedspec.Persist.of_string ~program corrupted with
        | Error _ -> incr spec_detected
        | Ok spec' ->
          if Sedspec.Persist.to_string spec' = spec_text then incr spec_benign
          else incr spec_silent)
      | _ ->
        scrub ~device machine checker;
        C.set_config checker { config with on_internal_error = plan.policy };
        let remedy =
          Sedspec.Remedy.create
            ~policy_of:(fun _ -> Sedspec.Remedy.Rollback)
            ~breaker:(2, 8) machine ~device checker
        in
        let armed = Inject.arm plan machine checker in
        let plan_escaped = ref 0 in
        for _ = 1 to opts.cases_per_plan do
          (try
             W.soak_case ~mode:Workload.Samples.Sequential ~rng:prng
               ~rare_prob:0.0 ~ops:opts.ops_per_case machine
           with _ -> incr plan_escaped);
          warns := !warns + List.length (Vmm.Machine.warnings machine);
          if Vmm.Machine.halted machine then incr halts;
          ignore (Sedspec.Remedy.tick remedy : Sedspec.Remedy.event list)
        done;
        Inject.disarm armed;
        let plan_contained = C.internal_errors checker in
        injected := !injected + Inject.fired armed;
        contained := !contained + plan_contained;
        escaped := !escaped + !plan_escaped;
        (match plan.site with
        | Plan.Walk_raise _
          when plan.policy = C.Fail_closed
               && Inject.fired armed > 0
               && plan_contained = 0
               && !plan_escaped = 0 ->
          incr fail_open
        | _ -> ());
        rollbacks := !rollbacks + Sedspec.Remedy.rollbacks remedy;
        if Sedspec.Remedy.breaker_tripped remedy then incr breaker_trips;
        heals := !heals + C.heals checker)
    plans;
  {
    device;
    mode = cb_mode;
    engine = cb_engine;
    injected = !injected;
    contained = !contained;
    escaped = !escaped;
    fail_open = !fail_open;
    halts = !halts;
    warns = !warns;
    rollbacks = !rollbacks;
    breaker_trips = !breaker_trips;
    heals = !heals;
    spec_detected = !spec_detected;
    spec_benign = !spec_benign;
    spec_silent = !spec_silent;
  }

let run opts =
  let combos =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun m ->
            List.map
              (fun e -> { cb_device = d; cb_mode = m; cb_engine = e })
              [ C.Compiled; C.Interpreted ])
          [ C.Protection; C.Enhancement ])
      opts.devices
  in
  let combos_r =
    Runner.map_seeded ~jobs:opts.jobs ~seed:opts.seed
      (fun ~seed combo -> run_combo ~seed opts combo)
      combos
  in
  { options = opts; combos = combos_r }

let totals r =
  List.fold_left
    (fun acc c ->
      {
        acc with
        injected = acc.injected + c.injected;
        contained = acc.contained + c.contained;
        escaped = acc.escaped + c.escaped;
        fail_open = acc.fail_open + c.fail_open;
        halts = acc.halts + c.halts;
        warns = acc.warns + c.warns;
        rollbacks = acc.rollbacks + c.rollbacks;
        breaker_trips = acc.breaker_trips + c.breaker_trips;
        heals = acc.heals + c.heals;
        spec_detected = acc.spec_detected + c.spec_detected;
        spec_benign = acc.spec_benign + c.spec_benign;
        spec_silent = acc.spec_silent + c.spec_silent;
      })
    {
      device = "total";
      mode = C.Protection;
      engine = C.Compiled;
      injected = 0;
      contained = 0;
      escaped = 0;
      fail_open = 0;
      halts = 0;
      warns = 0;
      rollbacks = 0;
      breaker_trips = 0;
      heals = 0;
      spec_detected = 0;
      spec_benign = 0;
      spec_silent = 0;
    }
    r.combos

let passed r =
  let t = totals r in
  t.escaped = 0 && t.fail_open = 0 && t.spec_silent = 0

let mode_to_string = function
  | C.Protection -> "protection"
  | C.Enhancement -> "enhancement"

let engine_to_string = function
  | C.Compiled -> "compiled"
  | C.Interpreted -> "interpreted"

let combo_fields c =
  [
    ("injected", Json.Int c.injected);
    ("contained", Json.Int c.contained);
    ("escaped", Json.Int c.escaped);
    ("fail_open", Json.Int c.fail_open);
    ("halts", Json.Int c.halts);
    ("warns", Json.Int c.warns);
    ("rollbacks", Json.Int c.rollbacks);
    ("breaker_trips", Json.Int c.breaker_trips);
    ("heals", Json.Int c.heals);
    ("spec_detected", Json.Int c.spec_detected);
    ("spec_benign", Json.Int c.spec_benign);
    ("spec_silent", Json.Int c.spec_silent);
  ]

let report_to_json r =
  Json.Obj
    [
      ("seed", Json.Str (Printf.sprintf "0x%Lx" r.options.seed));
      ("plans_per_combo", Json.Int r.options.plans_per_combo);
      ("cases_per_plan", Json.Int r.options.cases_per_plan);
      ("ops_per_case", Json.Int r.options.ops_per_case);
      ("devices", Json.List (List.map (fun d -> Json.Str d) r.options.devices));
      ( "combos",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 (("device", Json.Str c.device)
                  :: ("mode", Json.Str (mode_to_string c.mode))
                  :: ("engine", Json.Str (engine_to_string c.engine))
                  :: combo_fields c))
             r.combos) );
      ("totals", Json.Obj (combo_fields (totals r)));
      ("passed", Json.Bool (passed r));
    ]

let pp_report ppf r =
  let line c name =
    Format.fprintf ppf
      "%-24s %9d %9d %7d %9d %6d %6d %9d %7d %5d %8d %6d %6d@." name c.injected
      c.contained c.escaped c.fail_open c.halts c.warns c.rollbacks
      c.breaker_trips c.heals c.spec_detected c.spec_benign c.spec_silent
  in
  Format.fprintf ppf "%-24s %9s %9s %7s %9s %6s %6s %9s %7s %5s %8s %6s %6s@."
    "device/mode/engine" "injected" "contained" "escaped" "fail-open" "halts"
    "warns" "rollbacks" "breaker" "heals" "specdet" "benign" "silent";
  List.iter
    (fun c ->
      line c
        (Printf.sprintf "%s/%s/%s" c.device
           (match c.mode with C.Protection -> "prot" | C.Enhancement -> "enh")
           (match c.engine with C.Compiled -> "comp" | C.Interpreted -> "interp")))
    r.combos;
  line (totals r) "TOTAL";
  Format.fprintf ppf "verdict: %s@."
    (if passed r then "PASS (no escapes, no silent fail-opens)"
     else "FAIL (escaped exception or silent fail-open)")

(* ------------------------------------------------------------------ *)
(* Fleet bulkhead isolation                                            *)
(* ------------------------------------------------------------------ *)

type fleet_options = {
  fl_vms : int;
  fl_faulty : int;
  fl_ticks : int;
  fl_seed : int64;
  fl_jobs : int;
  fl_devices : string list;
}

type fleet_report = {
  fl_options : fleet_options;
  fl_faulty_set : int list;
  fl_sites : (int * string) list;  (** (vm, armed fault site). *)
  fl_fired : int;
  fl_clean_divergent : int list;
  fl_jobs_divergence : bool;
  fl_baseline : Fleet.Supervisor.report;
  fl_faulted : Fleet.Supervisor.report;
}

(* Spread the faulty members across the fleet so every device type in the
   round-robin can land in both the faulty and the clean partition. *)
let faulty_set ~vms ~faulty =
  List.init faulty (fun k -> k * vms / faulty)

(* Only machine-site faults make sense against a live fleet member; the
   spec sites are exercised by the load path (Vm's backoff'd Persist
   retries), not by arming. *)
let machine_site rng =
  match Prng.int rng 4 with
  | 0 -> Plan.Guest_corrupt { mask = Prng.pick rng Plan.masks }
  | 1 -> Plan.Guest_short { limit = Prng.pick rng Plan.limits }
  | 2 -> Plan.Walk_raise { at_walk = Prng.int rng 6 }
  | _ -> Plan.Walk_delay { at_walk = Prng.int rng 6; spin = Prng.pick rng Plan.spins }

(* One isolation driver for both campaigns: [site_gen] draws the fault
   armed on each faulty VM, [guard] attaches the guest-side validator to
   every VM. *)
let isolation_run ~site_gen ~guard opts =
  if opts.fl_faulty < 1 || opts.fl_faulty > opts.fl_vms then
    invalid_arg "Campaign.fleet_isolation: need 1 <= faulty <= vms";
  let faulty = faulty_set ~vms:opts.fl_vms ~faulty:opts.fl_faulty in
  let sup_opts jobs =
    {
      Fleet.Supervisor.vms = opts.fl_vms;
      ticks = opts.fl_ticks;
      seed = opts.fl_seed;
      jobs;
      devices = opts.fl_devices;
      vm_opts =
        (fun device ->
          { (Fleet.Vm.default_options ~device) with Fleet.Vm.guard });
    }
  in
  (* Plan sites are drawn per faulty VM from a stream keyed only by the
     campaign seed and the VM index, so arming is jobs-independent too. *)
  let site_of = Hashtbl.create 8 in
  List.iter
    (fun vm ->
      let rng = Prng.create (Int64.add opts.fl_seed (Int64.of_int (vm + 1))) in
      Hashtbl.replace site_of vm (site_gen (Prng.split rng)))
    faulty;
  let fired = Atomic.make 0 in
  let arm ~vm machine checker =
    match Hashtbl.find_opt site_of vm with
    | None -> None
    | Some site ->
      let plan = { Plan.id = vm; site; policy = C.Fail_closed } in
      let armed = Inject.arm plan machine checker in
      Some
        (fun () ->
          Inject.disarm armed;
          ignore (Atomic.fetch_and_add fired (Inject.fired armed) : int))
  in
  let baseline = Fleet.Supervisor.run (sup_opts opts.fl_jobs) in
  let faulted = Fleet.Supervisor.run ~arm (sup_opts opts.fl_jobs) in
  let jobs_divergence =
    if opts.fl_jobs = 1 then false
    else
      let serial = Fleet.Supervisor.run ~arm (sup_opts 1) in
      Fleet.Supervisor.report_to_json serial
      <> Fleet.Supervisor.report_to_json faulted
  in
  let base_vms = Array.of_list baseline.Fleet.Supervisor.f_vms
  and fault_vms = Array.of_list faulted.Fleet.Supervisor.f_vms in
  (* Compare behaviour, not arena identity: [r_arena] is a physical
     handle (and holds closures, which structural compare rejects).  A
     faulty sibling's failed build may legitimately force a fresh —
     equal-content — arena for clean VMs acquired after the eviction. *)
  let strip (r : Fleet.Vm.report) = { r with Fleet.Vm.r_arena = None } in
  let clean_divergent =
    List.filter
      (fun i ->
        (not (List.mem i faulty)) && strip base_vms.(i) <> strip fault_vms.(i))
      (List.init opts.fl_vms Fun.id)
  in
  {
    fl_options = opts;
    fl_faulty_set = faulty;
    fl_sites =
      List.map
        (fun vm -> (vm, Plan.site_to_string (Hashtbl.find site_of vm)))
        faulty;
    fl_fired = Atomic.get fired;
    fl_clean_divergent = clean_divergent;
    fl_jobs_divergence = jobs_divergence;
    fl_baseline = baseline;
    fl_faulted = faulted;
  }

let fleet_isolation opts =
  isolation_run ~site_gen:machine_site ~guard:false opts

let fleet_passed r =
  r.fl_fired > 0 && r.fl_clean_divergent = [] && not r.fl_jobs_divergence

let fleet_report_to_json r =
  let o = r.fl_options in
  Json.Obj
    [
      ("seed", Json.Str (Printf.sprintf "0x%Lx" o.fl_seed));
      ("vms", Json.Int o.fl_vms);
      ("ticks", Json.Int o.fl_ticks);
      ("jobs", Json.Int o.fl_jobs);
      ("devices", Json.List (List.map (fun d -> Json.Str d) o.fl_devices));
      ("faulty", Json.List (List.map (fun i -> Json.Int i) r.fl_faulty_set));
      ( "sites",
        Json.List
          (List.map
             (fun (vm, s) ->
               Json.Obj [ ("vm", Json.Int vm); ("site", Json.Str s) ])
             r.fl_sites) );
      ("fired", Json.Int r.fl_fired);
      ( "clean_divergent",
        Json.List (List.map (fun i -> Json.Int i) r.fl_clean_divergent) );
      ("jobs_divergence", Json.Bool r.fl_jobs_divergence);
      ( "baseline",
        Json.Obj
          [
            ("interactions", Json.Int r.fl_baseline.Fleet.Supervisor.f_interactions);
            ("anomalies", Json.Int r.fl_baseline.Fleet.Supervisor.f_anomalies);
            ("crashes", Json.Int r.fl_baseline.Fleet.Supervisor.f_crashes);
            ("rollbacks", Json.Int r.fl_baseline.Fleet.Supervisor.f_rollbacks);
          ] );
      ( "faulted",
        Json.Obj
          [
            ("interactions", Json.Int r.fl_faulted.Fleet.Supervisor.f_interactions);
            ("anomalies", Json.Int r.fl_faulted.Fleet.Supervisor.f_anomalies);
            ("internal_errors", Json.Int r.fl_faulted.Fleet.Supervisor.f_internal_errors);
            ("deadline_overruns", Json.Int r.fl_faulted.Fleet.Supervisor.f_deadline_overruns);
            ("crashes", Json.Int r.fl_faulted.Fleet.Supervisor.f_crashes);
            ("rollbacks", Json.Int r.fl_faulted.Fleet.Supervisor.f_rollbacks);
            ("degrades", Json.Int r.fl_faulted.Fleet.Supervisor.f_degrades);
          ] );
      ("passed", Json.Bool (fleet_passed r));
    ]

let pp_fleet_report ppf r =
  Format.fprintf ppf
    "fleet isolation: %d VMs (%d faulty: %s), %d ticks, seed %Ld@."
    r.fl_options.fl_vms r.fl_options.fl_faulty
    (String.concat ","
       (List.map (fun (vm, s) -> Printf.sprintf "vm%d:%s" vm s) r.fl_sites))
    r.fl_options.fl_ticks r.fl_options.fl_seed;
  Format.fprintf ppf
    "  faults fired: %d; faulted-run anomalies: %d (baseline %d); \
     rollbacks: %d (baseline %d)@."
    r.fl_fired r.fl_faulted.Fleet.Supervisor.f_anomalies
    r.fl_baseline.Fleet.Supervisor.f_anomalies
    r.fl_faulted.Fleet.Supervisor.f_rollbacks
    r.fl_baseline.Fleet.Supervisor.f_rollbacks;
  (match r.fl_clean_divergent with
  | [] -> Format.fprintf ppf "  clean VMs: all byte-identical to baseline@."
  | l ->
    Format.fprintf ppf "  clean VMs DIVERGED: %s@."
      (String.concat "," (List.map string_of_int l)));
  Format.fprintf ppf "verdict: %s@."
    (if fleet_passed r then
       "PASS (faults fired, zero cross-bulkhead interference, \
        jobs-independent)"
     else "FAIL (no firing, clean-VM divergence or jobs divergence)")

(* ------------------------------------------------------------------ *)
(* Hostile-device campaign: corruptions of the host->guest channel     *)
(* ------------------------------------------------------------------ *)

type hostile_options = {
  h_devices : string list;
  h_plans_per_combo : int;
  h_cases_per_plan : int;
  h_ops_per_case : int;
  h_min_injected : int;
  h_seed : int64;
  h_jobs : int;
}

type hostile_combo_report = {
  hc_device : string;
  hc_mode : C.mode;
  hc_engine : C.engine;
  hc_injected : int;
  hc_contained : int;
  hc_escaped : int;
  hc_fail_open : int;
  hc_guard_anoms : int;
  hc_halts : int;
  hc_warns : int;
  hc_rollbacks : int;
  hc_breaker_trips : int;
  hc_heals : int;
}

type hostile_report = {
  h_options : hostile_options;
  h_combos : hostile_combo_report list;
}

let run_hostile_combo ~seed opts { cb_device = device; cb_mode; cb_engine } =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = W.paper_version in
  let config = { C.default_config with mode = cb_mode; engine = cb_engine } in
  let machine, checker =
    Metrics.Spec_cache.fresh_protected_machine ~config ~vmexit_cost:0 w version
  in
  let profile = Metrics.Spec_cache.guard_profile w version in
  let validator = Guard.Validator.attach machine ~device ~profile in
  let guard_anoms = ref 0 in
  let aux_drain () =
    let l = Guard.Validator.drain_as_checker_anomalies validator in
    guard_anoms := !guard_anoms + List.length l;
    l
  in
  let rng = Prng.create seed in
  let plans = Plan.generate_hostile rng ~n:opts.h_plans_per_combo in
  let injected = ref 0
  and contained = ref 0
  and escaped = ref 0
  and fail_open = ref 0
  and halts = ref 0
  and warns = ref 0
  and rollbacks = ref 0
  and breaker_trips = ref 0
  and heals = ref 0 in
  List.iter
    (fun (plan : Plan.t) ->
      let prng = Prng.split rng in
      scrub ~device machine checker;
      Guard.Validator.reset validator;
      C.set_config checker { config with on_internal_error = plan.policy };
      Guard.Validator.set_config validator
        { Guard.Validator.default_config with containment = plan.policy };
      let remedy =
        Sedspec.Remedy.create
          ~policy_of:(fun _ -> Sedspec.Remedy.Rollback)
          ~aux_drain ~breaker:(2, 8) machine ~device checker
      in
      let armed = Inject.arm ~guard:validator plan machine checker in
      let plan_escaped = ref 0 in
      for _ = 1 to opts.h_cases_per_plan do
        (try
           W.soak_case ~mode:Workload.Samples.Sequential ~rng:prng
             ~rare_prob:0.0 ~ops:opts.h_ops_per_case machine
         with _ -> incr plan_escaped);
        warns := !warns + List.length (Vmm.Machine.warnings machine);
        if Vmm.Machine.halted machine then incr halts;
        ignore (Guard.Validator.heal validator : bool);
        ignore (Sedspec.Remedy.tick remedy : Sedspec.Remedy.event list)
      done;
      Inject.disarm armed;
      let plan_contained =
        C.internal_errors checker + Guard.Validator.internal_errors validator
      in
      injected := !injected + Inject.fired armed;
      contained := !contained + plan_contained;
      escaped := !escaped + !plan_escaped;
      (match plan.site with
      | Plan.Guard_raise _
        when plan.policy = C.Fail_closed
             && Inject.fired armed > 0
             && Guard.Validator.internal_errors validator = 0
             && !plan_escaped = 0 ->
        incr fail_open
      | _ -> ());
      rollbacks := !rollbacks + Sedspec.Remedy.rollbacks remedy;
      if Sedspec.Remedy.breaker_tripped remedy then incr breaker_trips;
      heals := !heals + C.heals checker + Guard.Validator.heals validator)
    plans;
  Guard.Validator.detach validator;
  {
    hc_device = device;
    hc_mode = cb_mode;
    hc_engine = cb_engine;
    hc_injected = !injected;
    hc_contained = !contained;
    hc_escaped = !escaped;
    hc_fail_open = !fail_open;
    hc_guard_anoms = !guard_anoms;
    hc_halts = !halts;
    hc_warns = !warns;
    hc_rollbacks = !rollbacks;
    hc_breaker_trips = !breaker_trips;
    hc_heals = !heals;
  }

let run_hostile opts =
  let combos =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun m ->
            List.map
              (fun e -> { cb_device = d; cb_mode = m; cb_engine = e })
              [ C.Compiled; C.Interpreted ])
          [ C.Protection; C.Enhancement ])
      opts.h_devices
  in
  let combos_r =
    Runner.map_seeded ~jobs:opts.h_jobs ~seed:opts.h_seed
      (fun ~seed combo -> run_hostile_combo ~seed opts combo)
      combos
  in
  { h_options = opts; h_combos = combos_r }

let hostile_totals r =
  List.fold_left
    (fun acc c ->
      {
        acc with
        hc_injected = acc.hc_injected + c.hc_injected;
        hc_contained = acc.hc_contained + c.hc_contained;
        hc_escaped = acc.hc_escaped + c.hc_escaped;
        hc_fail_open = acc.hc_fail_open + c.hc_fail_open;
        hc_guard_anoms = acc.hc_guard_anoms + c.hc_guard_anoms;
        hc_halts = acc.hc_halts + c.hc_halts;
        hc_warns = acc.hc_warns + c.hc_warns;
        hc_rollbacks = acc.hc_rollbacks + c.hc_rollbacks;
        hc_breaker_trips = acc.hc_breaker_trips + c.hc_breaker_trips;
        hc_heals = acc.hc_heals + c.hc_heals;
      })
    {
      hc_device = "total";
      hc_mode = C.Protection;
      hc_engine = C.Compiled;
      hc_injected = 0;
      hc_contained = 0;
      hc_escaped = 0;
      hc_fail_open = 0;
      hc_guard_anoms = 0;
      hc_halts = 0;
      hc_warns = 0;
      hc_rollbacks = 0;
      hc_breaker_trips = 0;
      hc_heals = 0;
    }
    r.h_combos

let hostile_passed r =
  let t = hostile_totals r in
  t.hc_escaped = 0 && t.hc_fail_open = 0
  && t.hc_injected >= r.h_options.h_min_injected

let hostile_combo_fields c =
  [
    ("injected", Json.Int c.hc_injected);
    ("contained", Json.Int c.hc_contained);
    ("escaped", Json.Int c.hc_escaped);
    ("fail_open", Json.Int c.hc_fail_open);
    ("guard_anomalies", Json.Int c.hc_guard_anoms);
    ("halts", Json.Int c.hc_halts);
    ("warns", Json.Int c.hc_warns);
    ("rollbacks", Json.Int c.hc_rollbacks);
    ("breaker_trips", Json.Int c.hc_breaker_trips);
    ("heals", Json.Int c.hc_heals);
  ]

let hostile_report_to_json r =
  Json.Obj
    [
      ("seed", Json.Str (Printf.sprintf "0x%Lx" r.h_options.h_seed));
      ("plans_per_combo", Json.Int r.h_options.h_plans_per_combo);
      ("cases_per_plan", Json.Int r.h_options.h_cases_per_plan);
      ("ops_per_case", Json.Int r.h_options.h_ops_per_case);
      ("min_injected", Json.Int r.h_options.h_min_injected);
      ( "devices",
        Json.List (List.map (fun d -> Json.Str d) r.h_options.h_devices) );
      ( "combos",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 (("device", Json.Str c.hc_device)
                  :: ("mode", Json.Str (mode_to_string c.hc_mode))
                  :: ("engine", Json.Str (engine_to_string c.hc_engine))
                  :: hostile_combo_fields c))
             r.h_combos) );
      ("totals", Json.Obj (hostile_combo_fields (hostile_totals r)));
      ("passed", Json.Bool (hostile_passed r));
    ]

let pp_hostile_report ppf r =
  let line c name =
    Format.fprintf ppf "%-24s %9d %9d %7d %9d %6d %6d %6d %9d %7d %5d@." name
      c.hc_injected c.hc_contained c.hc_escaped c.hc_fail_open c.hc_guard_anoms
      c.hc_halts c.hc_warns c.hc_rollbacks c.hc_breaker_trips c.hc_heals
  in
  Format.fprintf ppf "%-24s %9s %9s %7s %9s %6s %6s %6s %9s %7s %5s@."
    "device/mode/engine" "injected" "contained" "escaped" "fail-open" "guard"
    "halts" "warns" "rollbacks" "breaker" "heals";
  List.iter
    (fun c ->
      line c
        (Printf.sprintf "%s/%s/%s" c.hc_device
           (match c.hc_mode with C.Protection -> "prot" | C.Enhancement -> "enh")
           (match c.hc_engine with
           | C.Compiled -> "comp"
           | C.Interpreted -> "interp")))
    r.h_combos;
  line (hostile_totals r) "TOTAL";
  let t = hostile_totals r in
  Format.fprintf ppf "verdict: %s@."
    (if hostile_passed r then
       Printf.sprintf
         "PASS (%d corruptions injected, no escapes, no silent fail-opens)"
         t.hc_injected
     else "FAIL (escaped exception, silent fail-open or too few injections)")

(* Hostile fleet isolation: the same bulkhead oracle, but with the guard
   enabled on every VM and response-direction sites armed on the faulty
   subset.  [Guard_raise] cannot flow through the supervisor's arm seam
   (it has no validator handle), so the pool is the four corruption
   sites. *)
let hostile_machine_site rng =
  match Prng.int rng 4 with
  | 0 -> Plan.Resp_read_corrupt { mask = Prng.pick rng Plan.masks }
  | 1 -> Plan.Resp_dma_len { delta = Prng.pick rng Plan.resp_deltas }
  | 2 -> Plan.Resp_store_corrupt { mask = Prng.pick rng Plan.masks }
  | _ -> Plan.Resp_irq_storm { burst = Prng.pick rng Plan.bursts }

let hostile_isolation opts =
  isolation_run ~site_gen:hostile_machine_site ~guard:true opts
