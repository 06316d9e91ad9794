module Runner = Sedspec_util.Runner
module Json = Sedspec_util.Json

type options = {
  vms : int;
  ticks : int;
  seed : int64;
  jobs : int;
  devices : string list;
  vm_opts : string -> Vm.options;
}

let default_options () =
  {
    vms = 8;
    ticks = 32;
    seed = 1L;
    jobs = 1;
    devices = [ "fdc"; "ehci"; "pcnet"; "sdhci"; "scsi" ];
    vm_opts = (fun device -> Vm.default_options ~device);
  }

type report = {
  f_vms : Vm.report list;
  f_ticks : int;
  f_seed : int64;
  f_interactions : int;
  f_anomalies : int;
  f_internal_errors : int;
  f_deadline_overruns : int;
  f_crashes : int;
  f_rollbacks : int;
  f_heals : int;
  f_degrades : int;
  f_restores : int;
  f_failed_vms : int;
  f_spec_builds : int;
      (** Single-flight spec builds this run triggered (cache deltas). *)
  f_arenas_shared : bool;
      (** Every cache-built VM of a device walks the physically same
          compiled arena. *)
  f_shadow : (int * int * int) option;
      (** Fleet-wide (agree, stricter, looser) when any VM shadowed a
          candidate. *)
}

let validate opts =
  if opts.vms < 1 then invalid_arg "Supervisor.run: vms must be >= 1";
  if opts.ticks < 1 then invalid_arg "Supervisor.run: ticks must be >= 1";
  if opts.devices = [] then invalid_arg "Supervisor.run: devices is empty";
  List.iter
    (fun d ->
      if Workload.Samples.find_opt d = None then
        invalid_arg (Printf.sprintf "Supervisor.run: unknown device %s" d))
    opts.devices

(* Physical-sharing audit: group the cache-built arenas by device and
   require each group to be one identity class.  [==] is meaningful
   across Runner domains (one shared major heap). *)
let arenas_shared reports =
  let by_device : (string, Sedspec.Compile.t) Hashtbl.t = Hashtbl.create 8 in
  List.for_all
    (fun (r : Vm.report) ->
      match r.Vm.r_arena with
      | None -> true
      | Some a -> (
        match Hashtbl.find_opt by_device r.Vm.r_device with
        | None ->
          Hashtbl.add by_device r.Vm.r_device a;
          true
        | Some first -> first == a))
    reports

let run ?arm opts =
  validate opts;
  let builds0 = Metrics.Spec_cache.builds () in
  let devices = Array.of_list opts.devices in
  let run_vm ~seed index =
    let device = devices.(index mod Array.length devices) in
    let vm_opts = { (opts.vm_opts device) with Vm.device } in
    let vm = Vm.create ~index ~seed vm_opts in
    let disarm =
      match arm with
      | None -> None
      | Some f -> (
        match (Vm.machine vm, Vm.checker vm) with
        | Some machine, Some checker -> f ~vm:index machine checker
        | _ -> None)
    in
    for _ = 1 to opts.ticks do
      Vm.tick vm
    done;
    (match disarm with Some d -> d () | None -> ());
    Vm.report vm
  in
  let reports =
    Runner.map_seeded ~jobs:opts.jobs ~seed:opts.seed run_vm
      (List.init opts.vms Fun.id)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    f_vms = reports;
    f_ticks = opts.ticks;
    f_seed = opts.seed;
    f_interactions = sum (fun r -> r.Vm.r_interactions);
    f_anomalies =
      sum (fun r ->
          r.Vm.r_anoms_param + r.Vm.r_anoms_indirect + r.Vm.r_anoms_cond
          + r.Vm.r_anoms_internal);
    f_internal_errors = sum (fun r -> r.Vm.r_internal_errors);
    f_deadline_overruns = sum (fun r -> r.Vm.r_deadline_overruns);
    f_crashes = sum (fun r -> r.Vm.r_crashes);
    f_rollbacks = sum (fun r -> r.Vm.r_rollbacks);
    f_heals = sum (fun r -> r.Vm.r_heals);
    f_degrades = sum (fun r -> r.Vm.r_degrades);
    f_restores = sum (fun r -> r.Vm.r_restores);
    f_failed_vms = sum (fun r -> if r.Vm.r_status = "ok" then 0 else 1);
    f_spec_builds = Metrics.Spec_cache.builds () - builds0;
    f_arenas_shared = arenas_shared reports;
    f_shadow =
      (if List.for_all (fun r -> r.Vm.r_shadow = None) reports then None
       else
         Some
           (List.fold_left
              (fun (a, s, l) r ->
                match r.Vm.r_shadow with
                | None -> (a, s, l)
                | Some sh ->
                  ( a + sh.Vm.sh_agree,
                    s + sh.Vm.sh_stricter,
                    l + sh.Vm.sh_looser ))
              (0, 0, 0) reports));
  }

let vm_to_json (r : Vm.report) =
  Json.Obj
    ([
      ("vm", Json.Int r.Vm.r_vm);
      ("device", Json.Str r.Vm.r_device);
      ("status", Json.Str r.Vm.r_status);
      ("mode", Json.Str (Governor.state_to_string r.Vm.r_state));
      ("degrades", Json.Int r.Vm.r_degrades);
      ("restores", Json.Int r.Vm.r_restores);
      ("burn_in_window", Json.Int r.Vm.r_burn);
      ("interactions", Json.Int r.Vm.r_interactions);
      ( "anomalies",
        Json.Obj
          [
            ("parameter", Json.Int r.Vm.r_anoms_param);
            ("indirect", Json.Int r.Vm.r_anoms_indirect);
            ("conditional", Json.Int r.Vm.r_anoms_cond);
            ("internal", Json.Int r.Vm.r_anoms_internal);
          ] );
      ("internal_errors", Json.Int r.Vm.r_internal_errors);
      ("deadline_overruns", Json.Int r.Vm.r_deadline_overruns);
      ("crashes", Json.Int r.Vm.r_crashes);
      ("halt_ticks", Json.Int r.Vm.r_halt_ticks);
      ("warns", Json.Int r.Vm.r_warns);
      ("rollbacks", Json.Int r.Vm.r_rollbacks);
      ("breaker_tripped", Json.Bool r.Vm.r_breaker_tripped);
      ("halted_final", Json.Bool r.Vm.r_halted_final);
      ("heals", Json.Int r.Vm.r_heals);
      ( "spec_build",
        Json.Obj
          [
            ("attempts", Json.Int r.Vm.r_build_attempts);
            ("fallback", Json.Bool r.Vm.r_build_fallback);
            ("backoff_delay", Json.Int r.Vm.r_backoff_delay);
            ("shared_arena", Json.Bool (r.Vm.r_arena <> None));
          ] );
      ( "coverage",
        Json.Obj
          [
            ("nodes", Json.Int r.Vm.r_cov_nodes);
            ("edges", Json.Int r.Vm.r_cov_edges);
          ] );
      ("stream", Json.List (List.map (fun l -> Json.Str l) r.Vm.r_stream));
    ]
    @
    (* A stream longer than the ring also gives its length and digest, so
       the JSON says lines were dropped; a whole stream's JSON keeps its
       historical bytes. *)
    (if r.Vm.r_stream_lines > List.length r.Vm.r_stream then
       [
         ("stream_lines", Json.Int r.Vm.r_stream_lines);
         ("stream_crc", Json.Str (Sedspec_util.Crc.to_hex r.Vm.r_stream_crc));
       ]
     else [])
    @
    (* Present only for guard-enabled VMs, so guard-less fleet JSON is
       byte-identical to what it was before the validator existed. *)
    (match r.Vm.r_guard with
    | None -> []
    | Some (anoms, internal) ->
      [
        ( "guard",
          Json.Obj
            [
              ("anomalies", Json.Int anoms);
              ("internal_errors", Json.Int internal);
            ] );
      ])
    @
    (* Likewise present only when this VM shadowed a candidate. *)
    (match r.Vm.r_shadow with
    | None -> []
    | Some sh ->
      [
        ( "shadow",
          Json.Obj
            [
              ("candidate_revision", Json.Int sh.Vm.sh_revision);
              ("candidate_provenance", Json.Str sh.Vm.sh_provenance);
              ("agree", Json.Int sh.Vm.sh_agree);
              ("stricter", Json.Int sh.Vm.sh_stricter);
              ("looser", Json.Int sh.Vm.sh_looser);
              ( "first_looser_tick",
                match sh.Vm.sh_first_looser_tick with
                | None -> Json.Int (-1)
                | Some t -> Json.Int t );
              ( "sites",
                Json.List
                  (List.map
                     (fun (site, (a, s, l)) ->
                       Json.Obj
                         [
                           ("site", Json.Str site);
                           ("agree", Json.Int a);
                           ("stricter", Json.Int s);
                           ("looser", Json.Int l);
                         ])
                     sh.Vm.sh_sites) );
            ] );
      ]))

let report_to_json r =
  Json.to_string
    (Json.Obj
       ([
         ("ticks", Json.Int r.f_ticks);
         ("seed", Json.Str (Int64.to_string r.f_seed));
         ("vms", Json.Int (List.length r.f_vms));
         ("failed_vms", Json.Int r.f_failed_vms);
         ("interactions", Json.Int r.f_interactions);
         ("anomalies", Json.Int r.f_anomalies);
         ("internal_errors", Json.Int r.f_internal_errors);
         ("deadline_overruns", Json.Int r.f_deadline_overruns);
         ("crashes", Json.Int r.f_crashes);
         ("rollbacks", Json.Int r.f_rollbacks);
         ("heals", Json.Int r.f_heals);
         ("degrades", Json.Int r.f_degrades);
         ("restores", Json.Int r.f_restores);
         ("spec_builds", Json.Int r.f_spec_builds);
         ("arenas_shared", Json.Bool r.f_arenas_shared);
       ]
       @ (match r.f_shadow with
         | None -> []
         | Some (a, s, l) ->
           [
             ( "shadow",
               Json.Obj
                 [
                   ("agree", Json.Int a);
                   ("stricter", Json.Int s);
                   ("looser", Json.Int l);
                 ] );
           ])
       @ [ ("fleet", Json.List (List.map vm_to_json r.f_vms)) ]))

let pp_report ppf r =
  Format.fprintf ppf "fleet: %d VMs x %d ticks (seed %Ld)@."
    (List.length r.f_vms) r.f_ticks r.f_seed;
  List.iter
    (fun (v : Vm.report) ->
      Format.fprintf ppf
        "  vm%-3d %-6s %-11s ia=%-6d anom=%d/%d/%d/%d over=%d crash=%d \
         rb=%d heal=%d cov=%d/%d %s@."
        v.Vm.r_vm v.Vm.r_device
        (Governor.state_to_string v.Vm.r_state)
        v.Vm.r_interactions v.Vm.r_anoms_param v.Vm.r_anoms_indirect
        v.Vm.r_anoms_cond v.Vm.r_anoms_internal v.Vm.r_deadline_overruns
        v.Vm.r_crashes v.Vm.r_rollbacks v.Vm.r_heals v.Vm.r_cov_nodes
        v.Vm.r_cov_edges v.Vm.r_status)
    r.f_vms;
  Format.fprintf ppf
    "  total: ia=%d anomalies=%d internal=%d overruns=%d crashes=%d \
     rollbacks=%d heals=%d degrades=%d restores=%d failed=%d builds=%d \
     shared=%b@."
    r.f_interactions r.f_anomalies r.f_internal_errors r.f_deadline_overruns
    r.f_crashes r.f_rollbacks r.f_heals r.f_degrades r.f_restores
    r.f_failed_vms r.f_spec_builds r.f_arenas_shared
