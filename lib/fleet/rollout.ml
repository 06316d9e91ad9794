(* The spec-evolution rollout ladder: Shadow -> Canary -> Promoted, with
   automatic demotion, rollback to the pinned base revision and a latch
   (like the Remedy circuit breaker) on any safety miss.

   Every rung is gated twice:

   - the {e catalogue gate}: the candidate, rebuilt at each catalogued
     CVE's vulnerable version, must detect the attack in both walk
     engines and both working modes (and block it in protection mode) —
     a candidate that unlearned an exploit signature never climbs;
   - the {e agreement gate}: shadow/canary fleets score the candidate's
     verdicts against the enforced spec; a looser verdict burns the
     agreement budget (a {!Governor.Budget} window), and candidate
     failures or halts on benign traffic demote immediately. *)

module Json = Sedspec_util.Json
module Runner = Sedspec_util.Runner

type recipe = {
  rc_name : string;
  rc_build : Devices.Qemu_version.t -> Sedspec.Pipeline.built;
}

let retrained (module W : Workload.Samples.DEVICE_WORKLOAD) ~cases =
  {
    rc_name = Printf.sprintf "retrained:%d" cases;
    rc_build =
      (fun version -> Metrics.Spec_cache.built_retrained (module W) version ~cases);
  }

type rung = Shadow | Canary | Promoted | Rolled_back

let rung_to_string = function
  | Shadow -> "shadow"
  | Canary -> "canary"
  | Promoted -> "promoted"
  | Rolled_back -> "rolled-back"

type config = {
  device : string;
  vms : int;
  canary_vms : int;
  shadow_vms : int;
  shadow_ticks : int;
  canary_ticks : int;
  seed : int64;
  jobs : int;
  vm_opts : Vm.options;
}

(* The promotion thresholds: a fleet phase passes with an agreement
   ratio of at least [agree_min] and at most [looser_budget] looser
   verdicts in any [budget_window]-tick {!Governor.Budget} window. *)
let agree_min = 0.98
let looser_budget = 0
let budget_window = 8

let default_config ~device =
  {
    device;
    vms = 4;
    canary_vms = 1;
    shadow_vms = 1;
    shadow_ticks = 12;
    canary_ticks = 8;
    seed = 1L;
    jobs = 1;
    vm_opts = Vm.default_options ~device;
  }

let validate cfg =
  if cfg.vms < 1 then invalid_arg "Rollout: vms must be >= 1";
  if cfg.canary_vms < 1 || cfg.canary_vms > cfg.vms then
    invalid_arg "Rollout: need 1 <= canary_vms <= vms";
  if cfg.shadow_vms < 1 || cfg.shadow_vms > cfg.vms then
    invalid_arg "Rollout: need 1 <= shadow_vms <= vms";
  if cfg.shadow_ticks < 1 || cfg.canary_ticks < 1 then
    invalid_arg "Rollout: ticks must be >= 1";
  if Workload.Samples.find_opt cfg.device = None then
    invalid_arg (Printf.sprintf "Rollout: unknown device %s" cfg.device)

(* --- Catalogue gate --------------------------------------------------- *)

type gate_check = {
  g_cve : string;
  g_engine : string;
  g_mode : string;
  g_detected : bool;
  g_blocked : bool;
  g_pass : bool;
}

(* Replay one catalogued CVE with the candidate enforced: detectable
   attacks must raise anomalies in both modes and also halt the machine
   in protection mode.  The candidate is rebuilt at the CVE's vulnerable
   version — the rollout never assumes paper-version behaviour transfers
   across the catalogue's version gates. *)
let gate_attack ~device (recipe : recipe) (a : Attacks.Attack.t) =
  let w = Workload.Samples.find device in
  let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  List.concat_map
    (fun engine ->
      List.map
        (fun mode ->
          let built = recipe.rc_build a.Attacks.Attack.qemu_version in
          let m = D.make_machine a.Attacks.Attack.qemu_version in
          let config =
            { Sedspec.Checker.default_config with Sedspec.Checker.engine; mode }
          in
          let checker =
            Sedspec.Pipeline.protect ~config m ~device built
          in
          a.Attacks.Attack.setup m;
          ignore
            (Sedspec.Checker.drain_anomalies checker
              : Sedspec.Checker.anomaly list);
          Attacks.Attack.run_stream m a;
          let anomalies = Sedspec.Checker.drain_anomalies checker in
          let detected = anomalies <> [] in
          let blocked = Vmm.Machine.halted m in
          let pass =
            match mode with
            | Sedspec.Checker.Protection -> detected && blocked
            | Sedspec.Checker.Enhancement -> detected
          in
          {
            g_cve = a.Attacks.Attack.cve;
            g_engine = Sedspec.Checker.engine_to_string engine;
            g_mode = Sedspec.Checker.mode_to_string mode;
            g_detected = detected;
            g_blocked = blocked;
            g_pass = pass;
          })
        [ Sedspec.Checker.Protection; Sedspec.Checker.Enhancement ])
    [ Sedspec.Checker.Compiled; Sedspec.Checker.Interpreted ]

let catalogue_gate ~device recipe =
  Attacks.Attack.all
  |> List.filter (fun (a : Attacks.Attack.t) ->
         a.Attacks.Attack.device = device
         && a.Attacks.Attack.detectable
         && a.Attacks.Attack.expected <> [])
  |> List.concat_map (gate_attack ~device recipe)

(* --- Fleet phases ----------------------------------------------------- *)

type phase = {
  ph_rung : rung;
  ph_agree : int;
  ph_stricter : int;
  ph_looser : int;
  ph_failed_vms : int;
  ph_halted_vms : int;
  ph_breaker_trips : int;
  ph_param_anomalies : int;
  ph_max_window_looser : int;  (** Peak {!Governor.Budget} window sum. *)
  ph_first_looser_tick : int option;
  ph_canary_regressions : string list;
      (** One entry per canary VM that did worse than its same-seed base
          twin; empty outside the canary rung. *)
}

(* The canary availability oracle is an A/B pair: the candidate-enforcing
   VM against a twin with the same index, seed and options but the base
   spec.  Benign-traffic flakiness (rare-command false positives halt
   base VMs too) cancels out — only a candidate doing {e worse} than the
   base under identical traffic is a regression. *)
let twin_regression index (c : Vm.report) (b : Vm.report) =
  let worse what cv bv =
    if cv > bv then
      Some (Printf.sprintf "vm%d: %s %d vs base %d" index what cv bv)
    else None
  in
  let bool_worse what cv bv =
    if cv && not bv then Some (Printf.sprintf "vm%d: %s" index what) else None
  in
  List.filter_map Fun.id
    [
      bool_worse "failed where the base served"
        (c.Vm.r_status <> "ok")
        (b.Vm.r_status <> "ok");
      worse "halt ticks" c.Vm.r_halt_ticks b.Vm.r_halt_ticks;
      bool_worse "breaker tripped" c.Vm.r_breaker_tripped
        b.Vm.r_breaker_tripped;
      worse "parameter anomalies" c.Vm.r_anoms_param b.Vm.r_anoms_param;
      worse "workload crashes" c.Vm.r_crashes b.Vm.r_crashes;
      worse "degrades" c.Vm.r_degrades b.Vm.r_degrades;
    ]

let phase_of_reports ~rung pairs =
  let reports = List.map fst pairs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let shadowed =
    List.filter_map (fun (r : Vm.report) -> r.Vm.r_shadow) reports
  in
  let ssum f = List.fold_left (fun acc s -> acc + f s) 0 shadowed in
  (* Fold every shadowing VM's looser ticks into one fleet stream
     (tick-aligned: all VMs run the same ticks) and slide the governor's
     budget window over it.  A tick missing from the stream had no looser
     verdict; a gap observes zeros, at most a window's worth, so the
     window sums are those of the dense per-tick stream.  They can only
     peak at a tick with a looser verdict. *)
  let merged =
    List.sort compare (List.concat_map (fun s -> s.Vm.sh_looser_ticks) shadowed)
    |> List.fold_left
         (fun acc (tick, l) ->
           match acc with
           | (t, sum) :: rest when t = tick -> (t, sum + l) :: rest
           | _ -> (tick, l) :: acc)
         []
    |> List.rev
  in
  let budget = Governor.Budget.create ~window:budget_window in
  let peak = ref 0 and last = ref 0 in
  List.iter
    (fun (tick, l) ->
      for _ = 1 to min (tick - !last - 1) budget_window do
        Governor.Budget.observe budget 0
      done;
      Governor.Budget.observe budget l;
      last := tick;
      peak := max !peak (Governor.Budget.sum budget))
    merged;
  {
    ph_rung = rung;
    ph_agree = ssum (fun s -> s.Vm.sh_agree);
    ph_stricter = ssum (fun s -> s.Vm.sh_stricter);
    ph_looser = ssum (fun s -> s.Vm.sh_looser);
    ph_failed_vms = sum (fun r -> if r.Vm.r_status = "ok" then 0 else 1);
    ph_halted_vms = sum (fun r -> if r.Vm.r_halted_final then 1 else 0);
    ph_breaker_trips = sum (fun r -> if r.Vm.r_breaker_tripped then 1 else 0);
    ph_param_anomalies = sum (fun r -> r.Vm.r_anoms_param);
    ph_max_window_looser = !peak;
    ph_first_looser_tick =
      List.fold_left
        (fun acc s ->
          match (acc, s.Vm.sh_first_looser_tick) with
          | None, t | t, None -> t
          | Some a, Some b -> Some (min a b))
        None shadowed;
    ph_canary_regressions =
      List.concat
        (List.mapi
           (fun i (c, twin) ->
             match twin with
             | None -> []
             | Some b -> twin_regression i c b)
           pairs);
  }

let agreement_ratio ph =
  let total = ph.ph_agree + ph.ph_stricter + ph.ph_looser in
  if total = 0 then 1.0 else float_of_int ph.ph_agree /. float_of_int total

(* Run one rollout fleet phase on the Runner pool: the first [canaries]
   VMs enforce the candidate (each paired with a same-seed base twin for
   the A/B regression oracle), the next [shadow_vms] enforce the base
   and shadow-walk the candidate, and any remaining VMs serve the base
   untouched — the subset is the shadow-overhead budget: evidence
   collection never costs more than [shadow_vms/vms] of one VM's
   lockstep walk, fleet-wide.  Seeding matches {!Supervisor.run}, so the
   phase is bit-identical for any [jobs]. *)
let fleet_phase cfg ~rung ~ticks ~canaries fetch =
  let serve ~seed ~index opts =
    let vm = Vm.create ~index ~seed opts in
    for _ = 1 to ticks do
      Vm.tick vm
    done;
    Vm.report vm
  in
  let run_vm ~seed index =
    if index < canaries then
      let cand_opts =
        {
          cfg.vm_opts with
          Vm.device = cfg.device;
          spec_origin = Vm.Candidate fetch;
          shadow = None;
        }
      in
      let base_opts =
        { cand_opts with Vm.spec_origin = Vm.Trained }
      in
      ( serve ~seed ~index cand_opts,
        Some (serve ~seed ~index base_opts) )
    else
      ( serve ~seed ~index
          {
            cfg.vm_opts with
            Vm.device = cfg.device;
            spec_origin = Vm.Trained;
            shadow =
              (if index < canaries + cfg.shadow_vms then Some fetch
               else None);
          },
        None )
  in
  let pairs =
    Runner.map_seeded ~jobs:cfg.jobs ~seed:cfg.seed run_vm
      (List.init cfg.vms Fun.id)
  in
  (phase_of_reports ~rung pairs, pairs)

(* --- The ladder ------------------------------------------------------- *)

type rollback = {
  rb_rung : rung;  (** The rung the candidate was demoted from. *)
  rb_reason : string;
  rb_to_revision : int;
  rb_latency_ticks : int;
      (** Ticks into the failing phase before the first looser evidence
          (phase length when the failure was not verdict-shaped). *)
}

type outcome = {
  o_device : string;
  o_recipe : string;
  o_base_revision : int;
  o_cand_revision : int;
  o_diff : Sedspec.Evolve.diff option;
      (** [None] only when the candidate never built. *)
  o_final : rung;
  o_pinned_revision : int;
  o_shadow : phase option;
  o_canary : phase option;
  o_gates : (string * gate_check list) list;
      (** Catalogue-gate results per rung, in rung order. *)
  o_rollback : rollback option;
}

(* Rollback latch, keyed by (device, recipe): a candidate demoted for a
   safety miss stays demoted for the life of the process — re-running the
   ladder cannot re-canary it (the Remedy breaker's latching discipline,
   applied to spec distribution). *)
let latches : (string * string, string) Hashtbl.t = Hashtbl.create 8
let latch_lock = Mutex.create ()

let latched ~device ~recipe =
  Mutex.lock latch_lock;
  let r = Hashtbl.find_opt latches (device, recipe) in
  Mutex.unlock latch_lock;
  r

let latch ~device ~recipe reason =
  Mutex.lock latch_lock;
  Hashtbl.replace latches (device, recipe) reason;
  Mutex.unlock latch_lock

let reset_latches () =
  Mutex.lock latch_lock;
  Hashtbl.reset latches;
  Mutex.unlock latch_lock

let run cfg (recipe : recipe) =
  validate cfg;
  let w = Workload.Samples.find cfg.device in
  let module D = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let base = Metrics.Spec_cache.built w D.paper_version in
  let base_rev = Sedspec.Es_cfg.revision base.Sedspec.Pipeline.spec in
  let rolled_back ?diff ?shadow ?canary ?(gates = []) ~cand_rev ~rung ~latency
      reason =
    latch ~device:cfg.device ~recipe:recipe.rc_name reason;
    {
      o_device = cfg.device;
      o_recipe = recipe.rc_name;
      o_base_revision = base_rev;
      o_cand_revision = cand_rev;
      o_diff = diff;
      o_final = Rolled_back;
      o_pinned_revision = base_rev;
      o_shadow = shadow;
      o_canary = canary;
      o_gates = gates;
      o_rollback =
        Some
          {
            rb_rung = rung;
            rb_reason = reason;
            rb_to_revision = base_rev;
            rb_latency_ticks = latency;
          };
    }
  in
  match latched ~device:cfg.device ~recipe:recipe.rc_name with
  | Some reason ->
    rolled_back ~cand_rev:(-1) ~rung:Rolled_back ~latency:0
      ("latched: " ^ reason)
  | None -> (
    (* Memoise candidate builds for this run so the per-rung catalogue
       gates do not re-train uncached recipes at every rung. *)
    let memo : (string, Sedspec.Pipeline.built) Hashtbl.t = Hashtbl.create 4 in
    let recipe =
      {
        recipe with
        rc_build =
          (fun version ->
            let k = Devices.Qemu_version.to_string version in
            match Hashtbl.find_opt memo k with
            | Some b -> b
            | None ->
              let b = recipe.rc_build version in
              Hashtbl.replace memo k b;
              b);
      }
    in
    match recipe.rc_build D.paper_version with
    | exception e ->
      rolled_back ~cand_rev:(-1) ~rung:Shadow ~latency:0
        ("candidate build failed: " ^ Printexc.to_string e)
    | cand ->
      let cand_rev = Sedspec.Es_cfg.revision cand.Sedspec.Pipeline.spec in
      let diff =
        Sedspec.Evolve.diff ~base:base.Sedspec.Pipeline.spec
          ~cand:cand.Sedspec.Pipeline.spec
      in
      let fetch () = recipe.rc_build D.paper_version in
      let gate_failures checks =
        List.filter_map
          (fun g ->
            if g.g_pass then None
            else Some (Printf.sprintf "%s/%s/%s" g.g_cve g.g_engine g.g_mode))
          checks
      in
      (* Rung 1: shadow.  Catalogue first — an unsafe candidate must not
         even be walked against production traffic. *)
      let g_shadow = catalogue_gate ~device:cfg.device recipe in
      let gates = [ (rung_to_string Shadow, g_shadow) ] in
      (match gate_failures g_shadow with
      | f :: _ ->
        rolled_back ~diff ~gates ~cand_rev ~rung:Shadow ~latency:0
          ("catalogue gate failed at shadow: " ^ f)
      | [] -> (
        let shadow_phase, _ =
          fleet_phase cfg ~rung:Shadow ~ticks:cfg.shadow_ticks ~canaries:0
            fetch
        in
        let latency_of ph ~ticks =
          Option.value ph.ph_first_looser_tick ~default:ticks
        in
        if shadow_phase.ph_failed_vms > 0 then
          rolled_back ~diff ~gates ~shadow:shadow_phase ~cand_rev ~rung:Shadow
            ~latency:cfg.shadow_ticks "shadow VM failed"
        else if shadow_phase.ph_max_window_looser > looser_budget then
          rolled_back ~diff ~gates ~shadow:shadow_phase ~cand_rev ~rung:Shadow
            ~latency:(latency_of shadow_phase ~ticks:cfg.shadow_ticks)
            (Printf.sprintf "agreement budget breached (%d looser in window > %d)"
               shadow_phase.ph_max_window_looser looser_budget)
        else if agreement_ratio shadow_phase < agree_min then
          rolled_back ~diff ~gates ~shadow:shadow_phase ~cand_rev ~rung:Shadow
            ~latency:(latency_of shadow_phase ~ticks:cfg.shadow_ticks)
            (Printf.sprintf "agreement %.4f below threshold %.4f"
               (agreement_ratio shadow_phase) agree_min)
        else
          (* Rung 2: canary — a subset of the fleet enforces the
             candidate; the rest keep shadow-scoring it. *)
          let g_canary = catalogue_gate ~device:cfg.device recipe in
          let gates = gates @ [ (rung_to_string Canary, g_canary) ] in
          match gate_failures g_canary with
          | f :: _ ->
            rolled_back ~diff ~gates ~shadow:shadow_phase ~cand_rev
              ~rung:Canary ~latency:0
              ("catalogue gate failed at canary: " ^ f)
          | [] -> (
            let canary_phase, _ =
              fleet_phase cfg ~rung:Canary ~ticks:cfg.canary_ticks
                ~canaries:cfg.canary_vms fetch
            in
            if canary_phase.ph_failed_vms > 0 then
              rolled_back ~diff ~gates ~shadow:shadow_phase
                ~canary:canary_phase ~cand_rev ~rung:Canary
                ~latency:cfg.canary_ticks "canary VM failed"
            else if canary_phase.ph_canary_regressions <> [] then
              rolled_back ~diff ~gates ~shadow:shadow_phase
                ~canary:canary_phase ~cand_rev ~rung:Canary
                ~latency:cfg.canary_ticks
                ("canary regressed against its base twin: "
                ^ String.concat "; " canary_phase.ph_canary_regressions)
            else if
              canary_phase.ph_max_window_looser > looser_budget
            then
              rolled_back ~diff ~gates ~shadow:shadow_phase
                ~canary:canary_phase ~cand_rev ~rung:Canary
                ~latency:(latency_of canary_phase ~ticks:cfg.canary_ticks)
                (Printf.sprintf
                   "agreement budget breached (%d looser in window > %d)"
                   canary_phase.ph_max_window_looser looser_budget)
            else
              (* Rung 3: promotion — one last catalogue replay before the
                 candidate revision is pinned fleet-wide. *)
              let g_promote = catalogue_gate ~device:cfg.device recipe in
              let gates = gates @ [ (rung_to_string Promoted, g_promote) ] in
              match gate_failures g_promote with
              | f :: _ ->
                rolled_back ~diff ~gates ~shadow:shadow_phase
                  ~canary:canary_phase ~cand_rev ~rung:Promoted ~latency:0
                  ("catalogue gate failed at promotion: " ^ f)
              | [] ->
                {
                  o_device = cfg.device;
                  o_recipe = recipe.rc_name;
                  o_base_revision = base_rev;
                  o_cand_revision = cand_rev;
                  o_diff = Some diff;
                  o_final = Promoted;
                  o_pinned_revision = cand_rev;
                  o_shadow = Some shadow_phase;
                  o_canary = Some canary_phase;
                  o_gates = gates;
                  o_rollback = None;
                }))))

(* --- Rendering -------------------------------------------------------- *)

let phase_to_json ph =
  Json.Obj
    [
      ("rung", Json.Str (rung_to_string ph.ph_rung));
      ("agree", Json.Int ph.ph_agree);
      ("stricter", Json.Int ph.ph_stricter);
      ("looser", Json.Int ph.ph_looser);
      ("agreement", Json.Str (Printf.sprintf "%.4f" (agreement_ratio ph)));
      ("failed_vms", Json.Int ph.ph_failed_vms);
      ("halted_vms", Json.Int ph.ph_halted_vms);
      ("breaker_trips", Json.Int ph.ph_breaker_trips);
      ("param_anomalies", Json.Int ph.ph_param_anomalies);
      ("max_window_looser", Json.Int ph.ph_max_window_looser);
      ( "first_looser_tick",
        match ph.ph_first_looser_tick with
        | None -> Json.Int (-1)
        | Some t -> Json.Int t );
      ( "canary_regressions",
        Json.List
          (List.map (fun s -> Json.Str s) ph.ph_canary_regressions) );
    ]

let gate_to_json (rung, checks) =
  Json.Obj
    [
      ("rung", Json.Str rung);
      ("pass", Json.Bool (List.for_all (fun g -> g.g_pass) checks));
      ( "checks",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("cve", Json.Str g.g_cve);
                   ("engine", Json.Str g.g_engine);
                   ("mode", Json.Str g.g_mode);
                   ("detected", Json.Bool g.g_detected);
                   ("blocked", Json.Bool g.g_blocked);
                   ("pass", Json.Bool g.g_pass);
                 ])
             checks) );
    ]

let outcome_to_json o =
  Json.Obj
    ([
       ("device", Json.Str o.o_device);
       ("recipe", Json.Str o.o_recipe);
       ("base_revision", Json.Int o.o_base_revision);
       ("candidate_revision", Json.Int o.o_cand_revision);
       ("final", Json.Str (rung_to_string o.o_final));
       ("pinned_revision", Json.Int o.o_pinned_revision);
       ("gates", Json.List (List.map gate_to_json o.o_gates));
     ]
    @ (match o.o_diff with
      | None -> []
      | Some d -> [ ("diff", Sedspec.Evolve.diff_to_json d) ])
    @ (match o.o_shadow with
      | None -> []
      | Some ph -> [ ("shadow", phase_to_json ph) ])
    @ (match o.o_canary with
      | None -> []
      | Some ph -> [ ("canary", phase_to_json ph) ])
    @
    match o.o_rollback with
    | None -> []
    | Some rb ->
      [
        ( "rollback",
          Json.Obj
            [
              ("rung", Json.Str (rung_to_string rb.rb_rung));
              ("reason", Json.Str rb.rb_reason);
              ("to_revision", Json.Int rb.rb_to_revision);
              ("latency_ticks", Json.Int rb.rb_latency_ticks);
            ] );
      ])

let pp_outcome ppf o =
  Format.fprintf ppf "rollout %s %s: base r%d -> candidate r%d: %s@."
    o.o_device o.o_recipe o.o_base_revision o.o_cand_revision
    (rung_to_string o.o_final);
  (match o.o_diff with
  | Some d ->
    Format.fprintf ppf "  diff: %d changes@." (Sedspec.Evolve.change_count d)
  | None -> ());
  List.iter
    (fun (rung, checks) ->
      Format.fprintf ppf "  gate@%s: %d checks, %s@." rung
        (List.length checks)
        (if List.for_all (fun g -> g.g_pass) checks then "pass" else "FAIL"))
    o.o_gates;
  List.iter
    (fun ph ->
      Format.fprintf ppf
        "  %s: agree=%d stricter=%d looser=%d (%.4f) failed=%d halted=%d@."
        (rung_to_string ph.ph_rung)
        ph.ph_agree ph.ph_stricter ph.ph_looser (agreement_ratio ph)
        ph.ph_failed_vms ph.ph_halted_vms)
    (List.filter_map Fun.id [ o.o_shadow; o.o_canary ]);
  match o.o_rollback with
  | None -> ()
  | Some rb ->
    Format.fprintf ppf "  rollback@%s -> r%d after %d ticks: %s@."
      (rung_to_string rb.rb_rung) rb.rb_to_revision rb.rb_latency_ticks
      rb.rb_reason
