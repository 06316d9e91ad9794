module Prng = Sedspec_util.Prng
module Runner = Sedspec_util.Runner
module Json = Sedspec_util.Json
module C = Sedspec.Checker
module V = Guard.Validator

type kind = Substrate | Hostile

type options = {
  kind : kind;
  devices : string list;
  plans_per_combo : int;
  cases_per_plan : int;
  ops_per_case : int;
  min_injected : int;
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
  guard_anomalies : int;
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

let zero =
  {
    device = "total";
    mode = C.Protection;
    engine = C.Compiled;
    injected = 0;
    contained = 0;
    escaped = 0;
    fail_open = 0;
    guard_anomalies = 0;
    halts = 0;
    warns = 0;
    rollbacks = 0;
    breaker_trips = 0;
    heals = 0;
    spec_detected = 0;
    spec_benign = 0;
    spec_silent = 0;
  }

let run_combo ~seed opts (device, mode, engine) =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = W.paper_version in
  let spec_text =
    lazy
      (Sedspec.Persist.to_string
         (Metrics.Spec_cache.built w version).Sedspec.Pipeline.spec)
  in
  let config = { C.default_config with mode; engine } in
  let machine, checker =
    Metrics.Spec_cache.fresh_protected_machine ~config ~vmexit_cost:0 w version
  in
  let program = Interp.program (Vmm.Machine.interp_of machine device) in
  (* The hostile campaign chains the guest-side validator in front of the
     checker and feeds its anomalies to the remedy supervisor. *)
  let validator =
    match opts.kind with
    | Substrate -> None
    | Hostile ->
      let profile = Metrics.Spec_cache.guard_profile w version in
      Some (V.attach machine ~device ~profile)
  in
  let r = ref { zero with device; mode; engine } in
  let aux_drain =
    Option.map
      (fun v () ->
        let l = V.drain_as_checker_anomalies v in
        r := { !r with guard_anomalies = !r.guard_anomalies + List.length l };
        l)
      validator
  in
  let guard_count f = match validator with Some v -> f v | None -> 0 in
  let rng = Prng.create seed in
  let plans =
    match opts.kind with
    | Substrate -> Plan.generate rng ~n:opts.plans_per_combo
    | Hostile -> Plan.generate_hostile rng ~n:opts.plans_per_combo
  in
  List.iter
    (fun (plan : Plan.t) ->
      let prng = Prng.split rng in
      match plan.site with
      | Plan.Spec_bit_flip _ | Plan.Spec_truncate ->
        let spec_text = Lazy.force spec_text in
        let corrupted = Inject.corrupt_spec prng plan.site spec_text in
        let c = { !r with injected = !r.injected + 1 } in
        r :=
          (match Sedspec.Persist.of_string ~program corrupted with
          | Error _ -> { c with spec_detected = c.spec_detected + 1 }
          | Ok spec' when Sedspec.Persist.to_string spec' = spec_text ->
            { c with spec_benign = c.spec_benign + 1 }
          | Ok _ -> { c with spec_silent = c.spec_silent + 1 })
      | _ ->
        Vmm.Machine.reboot machine ~device;
        C.reset checker;
        Option.iter V.reset validator;
        C.set_config checker { config with on_internal_error = plan.policy };
        Option.iter
          (fun v ->
            V.set_config v { V.default_config with containment = plan.policy })
          validator;
        let remedy =
          Sedspec.Remedy.create
            ~policy_of:(fun _ -> Sedspec.Remedy.Rollback)
            ?aux_drain ~breaker:(2, 8) machine ~device checker
        in
        let armed = Inject.arm ?guard:validator plan machine checker in
        let escaped = ref 0 and halts = ref 0 and warns = ref 0 in
        for _ = 1 to opts.cases_per_plan do
          (try
             W.soak_case ~mode:Workload.Samples.Sequential ~rng:prng
               ~rare_prob:0.0 ~ops:opts.ops_per_case machine
           with _ -> incr escaped);
          warns := !warns + List.length (Vmm.Machine.warnings machine);
          if Vmm.Machine.halted machine then incr halts;
          Option.iter (fun v -> ignore (V.heal v : bool)) validator;
          ignore (Sedspec.Remedy.tick remedy : Sedspec.Remedy.event list)
        done;
        Inject.disarm armed;
        let fired = Inject.fired armed in
        let checker_errors = C.internal_errors checker
        and guard_errors = guard_count V.internal_errors in
        (* A fail-closed raise that fired must surface somewhere: as a
           containment in the layer it targets, or as an escape. *)
        let target_errors =
          match plan.site with
          | Plan.Walk_raise _ -> Some checker_errors
          | Plan.Guard_raise _ -> Some guard_errors
          | _ -> None
        in
        let silent =
          plan.policy = C.Fail_closed && fired > 0 && !escaped = 0
          && target_errors = Some 0
        in
        let c = !r in
        r :=
          {
            c with
            injected = c.injected + fired;
            contained = c.contained + checker_errors + guard_errors;
            escaped = c.escaped + !escaped;
            fail_open = c.fail_open + Bool.to_int silent;
            halts = c.halts + !halts;
            warns = c.warns + !warns;
            rollbacks = c.rollbacks + Sedspec.Remedy.rollbacks remedy;
            breaker_trips =
              c.breaker_trips
              + Bool.to_int (Sedspec.Remedy.breaker_tripped remedy);
            heals = c.heals + C.heals checker + guard_count V.heals;
          })
    plans;
  Option.iter V.detach validator;
  !r

let run opts =
  let combos =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun m -> List.map (fun e -> (d, m, e)) [ C.Compiled; C.Interpreted ])
          [ C.Protection; C.Enhancement ])
      opts.devices
  in
  {
    options = opts;
    combos =
      Runner.map_seeded ~jobs:opts.jobs ~seed:opts.seed
        (fun ~seed combo -> run_combo ~seed opts combo)
        combos;
  }

let totals r =
  List.fold_left
    (fun a c ->
      {
        a with
        injected = a.injected + c.injected;
        contained = a.contained + c.contained;
        escaped = a.escaped + c.escaped;
        fail_open = a.fail_open + c.fail_open;
        guard_anomalies = a.guard_anomalies + c.guard_anomalies;
        halts = a.halts + c.halts;
        warns = a.warns + c.warns;
        rollbacks = a.rollbacks + c.rollbacks;
        breaker_trips = a.breaker_trips + c.breaker_trips;
        heals = a.heals + c.heals;
        spec_detected = a.spec_detected + c.spec_detected;
        spec_benign = a.spec_benign + c.spec_benign;
        spec_silent = a.spec_silent + c.spec_silent;
      })
    zero r.combos

let passed r =
  let t = totals r in
  t.escaped = 0 && t.fail_open = 0 && t.spec_silent = 0
  && t.injected >= r.options.min_injected

(* One column per counter a kind reports: JSON key, table header and
   width, in the order both renderings emit them. *)
let columns kind =
  let col key head width get = (key, head, width, get) in
  let faults =
    [
      col "injected" "injected" 9 (fun c -> c.injected);
      col "contained" "contained" 9 (fun c -> c.contained);
      col "escaped" "escaped" 7 (fun c -> c.escaped);
      col "fail_open" "fail-open" 9 (fun c -> c.fail_open);
    ]
  and remedy =
    [
      col "halts" "halts" 6 (fun c -> c.halts);
      col "warns" "warns" 6 (fun c -> c.warns);
      col "rollbacks" "rollbacks" 9 (fun c -> c.rollbacks);
      col "breaker_trips" "breaker" 7 (fun c -> c.breaker_trips);
      col "heals" "heals" 5 (fun c -> c.heals);
    ]
  in
  match kind with
  | Substrate ->
    faults @ remedy
    @ [
        col "spec_detected" "specdet" 8 (fun c -> c.spec_detected);
        col "spec_benign" "benign" 6 (fun c -> c.spec_benign);
        col "spec_silent" "silent" 6 (fun c -> c.spec_silent);
      ]
  | Hostile ->
    faults
    @ [ col "guard_anomalies" "guard" 6 (fun c -> c.guard_anomalies) ]
    @ remedy

let mode_to_string = function
  | C.Protection -> "protection"
  | C.Enhancement -> "enhancement"

let engine_to_string = function
  | C.Compiled -> "compiled"
  | C.Interpreted -> "interpreted"

let report_to_json r =
  let o = r.options in
  let fields c =
    List.map (fun (key, _, _, get) -> (key, Json.Int (get c))) (columns o.kind)
  in
  Json.Obj
    ([
       ("seed", Json.Str (Printf.sprintf "0x%Lx" o.seed));
       ("plans_per_combo", Json.Int o.plans_per_combo);
       ("cases_per_plan", Json.Int o.cases_per_plan);
       ("ops_per_case", Json.Int o.ops_per_case);
     ]
    @ (match o.kind with
      | Substrate -> []
      | Hostile -> [ ("min_injected", Json.Int o.min_injected) ])
    @ [
        ("devices", Json.List (List.map (fun d -> Json.Str d) o.devices));
        ( "combos",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   (("device", Json.Str c.device)
                    :: ("mode", Json.Str (mode_to_string c.mode))
                    :: ("engine", Json.Str (engine_to_string c.engine))
                    :: fields c))
               r.combos) );
        ("totals", Json.Obj (fields (totals r)));
        ("passed", Json.Bool (passed r));
      ])

let pp_report ppf r =
  let cols = columns r.options.kind in
  let row name cells =
    Format.fprintf ppf "%-24s" name;
    List.iter2
      (fun (_, _, width, _) cell -> Format.fprintf ppf " %*s" width cell)
      cols cells;
    Format.fprintf ppf "@."
  in
  let line c name =
    row name (List.map (fun (_, _, _, get) -> string_of_int (get c)) cols)
  in
  row "device/mode/engine" (List.map (fun (_, head, _, _) -> head) cols);
  List.iter
    (fun c ->
      line c
        (Printf.sprintf "%s/%s/%s" c.device
           (match c.mode with C.Protection -> "prot" | C.Enhancement -> "enh")
           (match c.engine with C.Compiled -> "comp" | C.Interpreted -> "interp")))
    r.combos;
  let t = totals r in
  line t "TOTAL";
  Format.fprintf ppf "verdict: %s@."
    (match (r.options.kind, passed r) with
    | Substrate, true -> "PASS (no escapes, no silent fail-opens)"
    | Substrate, false -> "FAIL (escaped exception or silent fail-open)"
    | Hostile, true ->
      Printf.sprintf
        "PASS (%d corruptions injected, no escapes, no silent fail-opens)"
        t.injected
    | Hostile, false ->
      "FAIL (escaped exception, silent fail-open or too few injections)")

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

(* Only machine-site faults make sense against a live fleet member: the
   spec sites are exercised by the load path (Vm's backoff'd Persist
   retries), not by arming, and [Guard_raise] cannot flow through the
   supervisor's arm seam (it has no validator handle). *)
let isolation_site kind rng =
  match (kind, Prng.int rng 4) with
  | Substrate, 0 -> Plan.Guest_corrupt { mask = Prng.pick rng Plan.masks }
  | Substrate, 1 -> Plan.Guest_short { limit = Prng.pick rng Plan.limits }
  | Substrate, 2 -> Plan.Walk_raise { at_walk = Prng.int rng 6 }
  | Substrate, _ ->
    Plan.Walk_delay { at_walk = Prng.int rng 6; spin = Prng.pick rng Plan.spins }
  | Hostile, 0 -> Plan.Resp_read_corrupt { mask = Prng.pick rng Plan.masks }
  | Hostile, 1 -> Plan.Resp_dma_len { delta = Prng.pick rng Plan.resp_deltas }
  | Hostile, 2 -> Plan.Resp_store_corrupt { mask = Prng.pick rng Plan.masks }
  | Hostile, _ -> Plan.Resp_irq_storm { burst = Prng.pick rng Plan.bursts }

let isolation kind opts =
  if opts.fl_faulty < 1 || opts.fl_faulty > opts.fl_vms then
    invalid_arg "Campaign.isolation: need 1 <= faulty <= vms";
  let faulty = faulty_set ~vms:opts.fl_vms ~faulty:opts.fl_faulty in
  let guard = kind = Hostile in
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
      Hashtbl.replace site_of vm (isolation_site kind (Prng.split rng)))
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
