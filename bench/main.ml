(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VII).  Subcommands:

     table2    False positives over time        (paper Table II)
     table3    Main results: CVE detection matrix, FPR, coverage (Table III)
     fig3      Normalized storage throughput    (paper Figure 3)
     fig4      Normalized storage latency       (paper Figure 4)
     fig5      PCNet bandwidth and ping latency (paper Figure 5)
     ablation  Design-choice ablations (DESIGN.md §5)
     baseline  Nioh (manual state machines) vs SEDSpec   (paper §VII-B2)
     scale     Fleet scale: shared arenas + per-VM cursors at 10/1k/10k VMs
     rollout   Shadow-walk overhead budget + one candidate rollout ladder
     all       Everything above (default)

   Per-layer costs are measured by perfbench/; the fuzz, locate, fleet
   and hostile reports come from the sedspec CLI's --json output.

   Flags: --quick (shorter soaks), --seed N, --json FILE (dump every
   reported number as a flat JSON object keyed "section.detail"),
   --jobs N (fan independent per-device experiments out across N
   domains; deterministic sections are bit-identical for any N). *)

module Table = Sedspec_util.Table
module Runner = Sedspec_util.Runner

let quick = ref false
let seed = ref 42L

(* Effective worker-domain count.  Results never depend on it (every
   experiment derives its PRNG from the base seed and its own identity),
   only wall-clock does, so --jobs is clamped to the cores the runtime
   reports: oversubscribed domains only add stop-the-world GC barrier
   churn. *)
let jobs_requested = ref 1
let jobs = ref 1

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE)                               *)

module Json = Sedspec_util.Json

let json_path : string option ref = ref None
let json_out : (string * Json.t) list ref = ref []
let json_add key value = json_out := (key, value) :: !json_out
let json_int key v = json_add key (Json.Int v)
let json_bool key v = json_add key (Json.Bool v)
let json_str key v = json_add key (Json.Str v)

let json_float key v =
  json_add key (if Float.is_finite v then Json.Float v else Json.Null)

(* One flat object in insertion order, written atomically. *)
let json_write path =
  Sedspec_util.Atomic_file.write path
    (Json.to_string (Json.Obj (List.rev !json_out)))

let strategies =
  [
    Sedspec.Checker.Parameter_check;
    Sedspec.Checker.Indirect_jump_check;
    Sedspec.Checker.Conditional_jump_check;
  ]

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Table II: false positives over time                                  *)

let soak_results = Hashtbl.create 8

let soak_one (module W : Workload.Samples.DEVICE_WORKLOAD) =
  let cases_per_hour = if !quick then 20 else 120 in
  Metrics.Fpr.soak ~seed:!seed ~cases_per_hour
    ~checkpoint_hours:[ 10; 20; 30 ]
    (module W)

(* The per-device soaks are independent (each derives its own PRNG from
   the same base seed and its spec comes from the single-flight cache),
   so they fan out across --jobs domains.  Results are identical to a
   serial run; the section wall-clock is the first recorded parallelism
   trajectory point of the bench. *)
let soak_wall_s = ref nan

let ensure_soaks () =
  let missing =
    List.filter
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        not (Hashtbl.mem soak_results W.device_name))
      Workload.Samples.all
  in
  if missing <> [] then begin
    let t0 = Unix.gettimeofday () in
    let results = Runner.map ~jobs:!jobs soak_one missing in
    soak_wall_s := Unix.gettimeofday () -. t0;
    List.iter
      (fun (r : Metrics.Fpr.result) -> Hashtbl.add soak_results r.device r)
      results
  end

let soak_for (module W : Workload.Samples.DEVICE_WORKLOAD) =
  ensure_soaks ();
  Hashtbl.find soak_results W.device_name

(* Coverage measurements fan out the same way. *)
let coverage_results = Hashtbl.create 8

let coverage_for (module W : Workload.Samples.DEVICE_WORKLOAD) =
  if Hashtbl.length coverage_results = 0 then
    List.iter
      (fun (r : Metrics.Coverage.result) ->
        Hashtbl.add coverage_results r.device r)
      (Runner.map ~jobs:!jobs
         (fun w ->
           let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
           Metrics.Coverage.measure ~seed:!seed
             ~fuzz_cases:(if !quick then 30 else 60)
             (module W))
         Workload.Samples.all);
  Hashtbl.find coverage_results W.device_name

let table2 () =
  section "Table II: False Positives Over Time";
  let rows =
    List.map
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        let r = soak_for (module W) in
        List.iter
          (fun (c : Metrics.Fpr.checkpoint) ->
            json_int
              (Printf.sprintf "table2.%s.fp_at_%dh" W.device_name c.at_hours)
              c.fp_cases)
          r.checkpoints;
        let at h =
          match
            List.find_opt (fun (c : Metrics.Fpr.checkpoint) -> c.at_hours = h) r.checkpoints
          with
          | Some c -> string_of_int c.fp_cases
          | None -> "-"
        in
        [ String.uppercase_ascii W.device_name; at 10; at 20; at 30 ])
      Workload.Samples.all
  in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Device"; "10 hours"; "20 hours"; "30 hours" ]
    rows;
  Printf.printf
    "(paper: FDC 1/2/5, USB EHCI 3/3/3, PCNet 1/5/6, SDHCI 4/7/7, SCSI 1/3/4)\n";
  if Float.is_finite !soak_wall_s then
    Printf.printf "soak section wall-clock: %.2fs with %d job%s\n" !soak_wall_s
      !jobs
      (if !jobs = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Table III: main results                                              *)

let check_mark detected = if detected then "x" else ""

let table3 () =
  section "Table III: Main results (CVE case studies, FPR, coverage)";
  let case_results = Metrics.Case_study.run_all ~jobs:!jobs () in
  let rows =
    List.map
      (fun (r : Metrics.Case_study.result) ->
        let det s =
          match
            List.find_opt
              (fun (o : Metrics.Case_study.strategy_outcome) -> o.strategy = s)
              r.per_strategy
          with
          | Some o -> check_mark o.detected
          | None -> ""
        in
        json_bool
          (Printf.sprintf "table3.%s.matches_paper" r.attack.cve)
          (Metrics.Case_study.matches_expectation r);
        [
          r.attack.device;
          r.attack.cve;
          "v" ^ Devices.Qemu_version.to_string r.attack.qemu_version;
          det Sedspec.Checker.Parameter_check;
          det Sedspec.Checker.Indirect_jump_check;
          det Sedspec.Checker.Conditional_jump_check;
          (if Metrics.Case_study.matches_expectation r then "yes" else "NO");
        ])
      case_results
  in
  Table.print
    ~align:[ Table.Left; Table.Left; Table.Left; Table.Center; Table.Center; Table.Center; Table.Center ]
    ~header:
      [ "Device"; "CVE ID"; "QEMU"; "Param"; "Indirect"; "Cond."; "=paper?" ]
    rows;
  Printf.printf "\nPer-device FPR and effective coverage:\n";
  let rows =
    List.map
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        let soak = soak_for (module W) in
        let cov = coverage_for (module W) in
        json_float (Printf.sprintf "table3.%s.fpr" W.device_name) soak.fpr;
        json_float
          (Printf.sprintf "table3.%s.effective_coverage" W.device_name)
          cov.effective;
        [
          String.uppercase_ascii W.device_name;
          Table.fmt_pct soak.fpr;
          Printf.sprintf "%d/%d" soak.fp_cases soak.total_cases;
          string_of_int soak.param_check_fps;
          Table.fmt_pct cov.effective;
        ])
      Workload.Samples.all
  in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Device"; "FPR"; "N_L/N_T"; "param FPs"; "Eff. coverage" ]
    rows;
  Printf.printf
    "(paper FPR: 0.14/0.10/0.11/0.09/0.17%%; coverage: 95.9/97.3/96.2/93.5/93.8%%)\n"

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: storage throughput / latency                        *)

let fmt_block b =
  if b >= 1048576 then Printf.sprintf "%dM" (b / 1048576)
  else if b >= 1024 then Printf.sprintf "%dK" (b / 1024)
  else string_of_int b

(* Best-of-N to suppress scheduler noise. *)
let sweep_cached = Hashtbl.create 16

let sweep_compute device write =
    let reps = if !quick then 1 else 3 in
    let runs =
      List.init reps (fun _ -> Metrics.Perf.storage_sweep ~device ~write ())
    in
    (* Combine repetitions with per-side minima: the fastest observed
       base and protected times are the least noisy estimators. *)
    let best =
      List.map
        (fun (p0 : Metrics.Perf.storage_point) ->
          let pts =
            List.map
              (fun run ->
                List.find
                  (fun (p : Metrics.Perf.storage_point) ->
                    p.block_bytes = p0.block_bytes)
                  run)
              runs
          in
          let base_s =
            List.fold_left (fun acc (p : Metrics.Perf.storage_point) -> min acc p.base_s)
              max_float pts
          in
          let protected_s =
            List.fold_left
              (fun acc (p : Metrics.Perf.storage_point) -> min acc p.protected_s)
              max_float pts
          in
          {
            Metrics.Perf.block_bytes = p0.block_bytes;
            base_s;
            protected_s;
            norm_throughput = base_s /. protected_s;
            norm_latency = protected_s /. base_s;
          })
        (List.hd runs)
    in
    best

(* Train the specs a timed section needs before it fans out: a training
   in one domain stalls the others' timed device work (a minor collection
   stops every domain).  Over ten quick runs on a 2-vCPU host, Fig. 5's
   overheads read -92% to +45% without this and -23% to +18% with it. *)
let train_specs =
  List.iter (fun device ->
      let (module W : Workload.Samples.DEVICE_WORKLOAD) = Workload.Samples.find device in
      ignore (Metrics.Spec_cache.built (module W) W.paper_version))

(* All (device, direction) sweeps are pairwise independent, so they fan
   out across --jobs domains.  The device work is timed by the wall clock:
   fan-out trades timing noise (domains share cores and stop together for
   minor collections) for section wall-clock; the priced VM exits carry
   no noise, and the reported values are base/protected ratios, which see
   the same contention on both sides. *)
let ensure_sweeps () =
  train_specs Metrics.Perf.storage_devices;
  let missing =
    List.filter
      (fun key -> not (Hashtbl.mem sweep_cached key))
      (List.concat_map
         (fun device -> [ (device, false); (device, true) ])
         Metrics.Perf.storage_devices)
  in
  if missing <> [] then
    List.iter2
      (fun key pts -> Hashtbl.add sweep_cached key pts)
      missing
      (Runner.map ~jobs:!jobs
         (fun (device, write) -> sweep_compute device write)
         missing)

let sweep device write =
  ensure_sweeps ();
  Hashtbl.find sweep_cached (device, write)

let fig_storage ~latency () =
  section
    (if latency then "Figure 4: Normalized storage latency (protected / baseline)"
     else "Figure 3: Normalized storage throughput (baseline = 1.0)");
  List.iter
    (fun write ->
      Printf.printf "\n%s:\n" (if write then "write" else "read");
      let blocks =
        List.sort_uniq compare
          (List.concat_map Metrics.Perf.storage_blocks Metrics.Perf.storage_devices)
      in
      let rows =
        List.map
          (fun device ->
            let pts = sweep device write in
            device
            :: List.map
                 (fun b ->
                   match
                     List.find_opt
                       (fun (p : Metrics.Perf.storage_point) -> p.block_bytes = b)
                       pts
                   with
                   | Some p ->
                     let v = if latency then p.norm_latency else p.norm_throughput in
                     json_float
                       (Printf.sprintf "%s.%s.%s.%s"
                          (if latency then "fig4" else "fig3")
                          device
                          (if write then "write" else "read")
                          (fmt_block b))
                       v;
                     Table.fmt_float ~digits:3 v
                   | None -> "-")
                 blocks)
          Metrics.Perf.storage_devices
      in
      Table.print
        ~header:("Device" :: List.map fmt_block blocks)
        rows)
    [ false; true ];
  Printf.printf "(paper: within 5%% of 1.0 at every block size)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: PCNet bandwidth + ping                                     *)

let fig5 () =
  section "Figure 5: PCNet bandwidth benchmark (+ ping latency)";
  let kinds =
    [ Metrics.Perf.Tcp_up; Metrics.Perf.Tcp_down; Metrics.Perf.Udp_up; Metrics.Perf.Udp_down ]
  in
  let reps = if !quick then 1 else 3 in
  (* The four stream kinds are independent measurements; fan them out
     across --jobs domains (each kind keeps its repetitions serial so
     per-side maxima stay comparable). *)
  train_specs [ "pcnet" ];
  let measured =
    Runner.map ~jobs:!jobs
      (fun kind ->
        (* Per-side maxima across repetitions: the highest observed
           bandwidth on each side is the least noisy estimator. *)
        let pts = List.init reps (fun _ -> Metrics.Perf.pcnet_bandwidth kind) in
        let base_mbps =
          List.fold_left
            (fun acc (p : Metrics.Perf.net_point) -> max acc p.base_mbps)
            0.0 pts
        in
        let protected_mbps =
          List.fold_left
            (fun acc (p : Metrics.Perf.net_point) -> max acc p.protected_mbps)
            0.0 pts
        in
        (kind, base_mbps, protected_mbps))
      kinds
  in
  let rows =
    List.map
      (fun (kind, base_mbps, protected_mbps) ->
        let overhead = 100.0 *. (1.0 -. (protected_mbps /. base_mbps)) in
        let slug =
          String.map
            (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c)
            (Metrics.Perf.net_kind_to_string kind)
        in
        json_float (Printf.sprintf "fig5.%s.base_mbps" slug) base_mbps;
        json_float (Printf.sprintf "fig5.%s.protected_mbps" slug) protected_mbps;
        json_float (Printf.sprintf "fig5.%s.overhead_pct" slug) overhead;
        [
          Metrics.Perf.net_kind_to_string kind;
          Table.fmt_float base_mbps;
          Table.fmt_float protected_mbps;
          Table.fmt_float overhead ^ "%";
        ])
      measured
  in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Stream"; "Base MB/s"; "SEDSpec MB/s"; "Overhead" ]
    rows;
  let pings = List.init reps (fun _ -> Metrics.Perf.pcnet_ping ()) in
  let base = List.fold_left (fun acc (b, _, _) -> min acc b) max_float pings in
  let prot = List.fold_left (fun acc (_, p, _) -> min acc p) max_float pings in
  Printf.printf "ping: base %.3f ms, SEDSpec %.3f ms, overhead %.1f%%\n" base
    prot ((prot -. base) /. base *. 100.0);
  json_float "fig5.ping.base_ms" base;
  json_float "fig5.ping.protected_ms" prot;
  json_float "fig5.ping.overhead_pct" ((prot -. base) /. base *. 100.0);
  Printf.printf
    "(paper: TCP up/down 6.9/7.3%%, UDP up/down 5.7/6.6%%, ping +9.2%%)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation () =
  section "Ablation: control-flow reduction (spec size)";
  let rows =
    List.map
      (fun w ->
        let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
        let m = W.make_machine W.paper_version in
        let cases = if !quick then 8 else 16 in
        let unreduced =
          Sedspec.Pipeline.build ~reduce:false m ~device:W.device_name
            (W.trainer ~cases)
        in
        let m2 = W.make_machine W.paper_version in
        let reduced =
          Sedspec.Pipeline.build ~reduce:true m2 ~device:W.device_name
            (W.trainer ~cases)
        in
        [
          W.device_name;
          string_of_int (Sedspec.Es_cfg.node_count unreduced.spec);
          string_of_int (Sedspec.Es_cfg.node_count reduced.spec);
          string_of_int reduced.reduced;
          Printf.sprintf "%d/%d/%d" reduced.datadep.substituted
            reduced.datadep.guest_replay reduced.datadep.sync_points;
          string_of_int reduced.p1.trace_bytes;
        ])
      Workload.Samples.all
  in
  Table.print
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Center; Table.Right ]
    ~header:
      [ "Device"; "ES-CFG nodes"; "after reduction"; "removed";
        "datadep subst/guest/sync"; "PT bytes" ]
    rows;
  section "Ablation: simulated VM-exit cost vs. protection overhead (FDC read, 4K blocks)";
  (* One measurement, priced at each cost per exit. *)
  let base, prot =
    Metrics.Perf.storage_sides ~total_bytes:8192 ~device:"fdc" ~write:false
      ~block:4096
  in
  let rows =
    List.map
      (fun exit_us ->
        let base_s = Metrics.Perf.seconds ~exit_us base
        and protected_s = Metrics.Perf.seconds ~exit_us prot in
        [
          Printf.sprintf "%g" exit_us;
          Table.fmt_float ~digits:3 (base_s /. protected_s);
          Table.fmt_float ~digits:1 ((protected_s /. base_s -. 1.0) *. 100.0) ^ "%";
        ])
      [ 0.0; 2.0; 15.0; Metrics.Perf.exit_us ]
  in
  Table.print
    ~align:[ Table.Right; Table.Right; Table.Right ]
    ~header:[ "us per exit"; "norm. throughput"; "latency overhead" ]
    rows;
  section "Ablation: single-strategy detection of the venom stream";
  let rows =
    List.map
      (fun strat ->
        let attack = Attacks.Attack.find "CVE-2015-3456" in
        let w = Workload.Samples.find attack.device in
        let config =
          { Sedspec.Checker.default_config with Sedspec.Checker.strategies = [ strat ] }
        in
        let m, checker =
          Metrics.Spec_cache.fresh_protected_machine ~config w attack.qemu_version
        in
        attack.setup m;
        Attacks.Attack.run_stream m attack;
        let anoms = Sedspec.Checker.drain_anomalies checker in
        [
          Sedspec.Checker.strategy_to_string strat;
          string_of_int (List.length anoms);
          string_of_int (Sedspec.Checker.stats checker).Sedspec.Checker.interactions;
        ])
      strategies
  in
  Table.print
    ~header:[ "Strategy"; "anomalies (venom)"; "interactions checked" ]
    rows

(* ------------------------------------------------------------------ *)
(* Baseline comparison: Nioh                                            *)

let baseline () =
  section "Baseline: Nioh (manual state machines) vs SEDSpec (learned specs)";
  let rows =
    List.map
      (fun (v : Metrics.Baseline.verdict) ->
        [
          v.cve;
          v.device;
          (if v.nioh_detected then "detected" else "missed");
          (if v.sedspec_detected then "detected" else "missed");
        ])
      (Metrics.Baseline.run ())
  in
  Table.print
    ~header:[ "CVE"; "Device"; "Nioh (manual)"; "SEDSpec (automatic)" ]
    rows;
  Printf.printf
    "(paper: Nioh's set is fully detected by SEDSpec except CVE-2016-1568)\n";
  let rows =
    List.map
      (fun device ->
        [ device; string_of_int (Metrics.Baseline.benign_nioh_fp device) ])
      [ "fdc"; "scsi"; "pcnet" ]
  in
  Table.print ~header:[ "Device"; "Nioh benign FPs (40 soak cases)" ] rows;
  Printf.printf
    "(manual models cover rare commands, so Nioh has no rare-command FPs —\n\
    \ at the cost of hand-writing every model, which SEDSpec automates)\n"

(* ------------------------------------------------------------------ *)
(* Fleet scale: the arena/cursor split measured at 10 / 1k / 10k VMs.   *)

(* Fixed regression budgets, dumped next to the measurements so CI can
   fail the bench from the JSON alone.  Calibrated several x above the
   reference-container numbers so scheduler and GC noise cannot trip
   them, while a reintroduced per-walk allocation (a boxed option, a
   closure, a fresh tuple per node) or a per-VM copy of any arena table
   blows straight through. *)
let scale_max_minor_words_per_walk = 150.0
let scale_max_bytes_per_vm = 100_000.0

let scale_schema =
  "scale.vms<N>.*: vms = fleet size; interactions = timed-phase total; \
   throughput_ips = interactions/s fleet-wide; p50_tick_ns / p99_tick_ns \
   = per-VM tick latency percentiles in ns; bytes_per_vm = marginal \
   major-heap bytes per VM (live-word delta across cell creation); \
   minor_words_per_tick / minor_words_per_walk = steady-state \
   minor-heap allocation; walk_ns_per_node = busy ns per walked ES-CFG \
   node; builds = spec builds this configuration triggered (<= 1 per \
   (device, version), 0 once the single-flight cache is warm); shared = \
   every cell's compiled arena is physically (==) its device's one.  \
   scale.threshold.*: fixed budgets; CI fails if any configuration's \
   minor_words_per_walk or bytes_per_vm exceeds them."

let fmt_rate r =
  if r >= 1.0e6 then Printf.sprintf "%.2fM" (r /. 1.0e6)
  else if r >= 1.0e3 then Printf.sprintf "%.1fk" (r /. 1.0e3)
  else Printf.sprintf "%.0f" r

let scale_bench () =
  section "Fleet scale: shared arenas + per-VM cursors";
  let sizes = if !quick then [ 10; 1000 ] else [ 10; 1000; 10_000 ] in
  let results =
    List.map
      (fun vms ->
        let opts =
          {
            Fleet.Scale.vms;
            ticks = (if !quick then 2 else 4);
            seed = !seed;
            jobs = !jobs;
          }
        in
        (vms, Fleet.Scale.run opts))
      sizes
  in
  let rows =
    List.map
      (fun (vms, (r : Fleet.Scale.result)) ->
        let open Fleet.Scale in
        let pfx = Printf.sprintf "scale.vms%d" vms in
        json_int (pfx ^ ".vms") r.sc_vms;
        json_int (pfx ^ ".interactions") r.sc_interactions;
        json_int (pfx ^ ".anomalies") r.sc_anomalies;
        json_int (pfx ^ ".builds") r.sc_builds;
        json_bool (pfx ^ ".shared") r.sc_shared;
        json_float (pfx ^ ".throughput_ips") r.sc_throughput_ips;
        json_float (pfx ^ ".p50_tick_ns") r.sc_p50_tick_ns;
        json_float (pfx ^ ".p99_tick_ns") r.sc_p99_tick_ns;
        json_float (pfx ^ ".bytes_per_vm") r.sc_bytes_per_vm;
        json_float (pfx ^ ".minor_words_per_tick") r.sc_minor_words_per_tick;
        json_float (pfx ^ ".minor_words_per_walk") r.sc_minor_words_per_walk;
        json_float (pfx ^ ".walk_ns_per_node") r.sc_walk_ns_per_node;
        json_float (pfx ^ ".create_s") r.sc_create_s;
        [
          string_of_int vms;
          string_of_int r.sc_interactions;
          fmt_rate r.sc_throughput_ips;
          Printf.sprintf "%.0f" (r.sc_p99_tick_ns /. 1e3);
          Printf.sprintf "%.0f" r.sc_bytes_per_vm;
          Printf.sprintf "%.1f" r.sc_minor_words_per_walk;
          Printf.sprintf "%.1f" r.sc_walk_ns_per_node;
          Printf.sprintf "%d/%b" r.sc_builds r.sc_shared;
        ])
      results
  in
  json_str "scale.schema" scale_schema;
  json_float "scale.threshold.minor_words_per_walk"
    scale_max_minor_words_per_walk;
  json_float "scale.threshold.bytes_per_vm" scale_max_bytes_per_vm;
  Table.print
    ~align:
      [
        Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right;
      ]
    ~header:
      [
        "VMs"; "interactions"; "ia/s"; "p99 us"; "B/VM"; "mw/walk";
        "ns/node"; "builds/shared";
      ]
    rows;
  List.iter
    (fun (vms, (r : Fleet.Scale.result)) ->
      let budget name v max_v =
        if v > max_v then
          Printf.printf "BUDGET EXCEEDED: %d VMs %s %.1f > %.1f\n" vms name v
            max_v
      in
      budget "minor_words_per_walk" r.Fleet.Scale.sc_minor_words_per_walk
        scale_max_minor_words_per_walk;
      budget "bytes_per_vm" r.Fleet.Scale.sc_bytes_per_vm
        scale_max_bytes_per_vm;
      if r.Fleet.Scale.sc_anomalies > 0 then
        Printf.printf "ANOMALIES: %d VMs reported %d on benign streams\n" vms
          r.Fleet.Scale.sc_anomalies)
    results;
  Printf.printf
    "(one compiled arena per (device, version) shared by every cell;\n\
    \ each VM adds only a cursor + shadow/work state — bytes/VM is the\n\
    \ marginal cost, mw/walk the steady-state allocation per check)\n"

(* ------------------------------------------------------------------ *)
(* Rollout: shadow-walk overhead + the candidate ladder.                *)

(* Fixed regression budget, dumped next to the measurements so CI can
   fail the bench from the JSON alone: the lockstep shadow walk must
   cost at most 15% of the fleet's tick CPU time.  The walk itself is a
   second pointer-chase over an already-resident arena while the tick is
   dominated by device emulation, so the reference-container numbers sit
   far below the budget; a reintroduced per-interaction allocation or a
   rebuild of the candidate inside the hot path blows through it. *)
let rollout_overhead_max = 0.15

let rollout_schema =
  "rollout.<row>.base_cpu_s / shadow_cpu_s = CPU seconds (Sys.time) \
   spent ticking the fleet with the shadow walk off / on, summed over \
   every tick of every pair.  Each pair builds both fleets untimed with \
   the same seeds, runs Gc.compact, then times one tick of every base VM \
   and one tick of every shadow VM per tick, alternating which side goes \
   first, so both sides see the same host conditions and VM creation \
   stays out of the ratio; overhead = shadow/base - 1 over those sums; \
   agree/stricter/looser = fleet-wide shadow scoreboard of the last \
   pair.  Rows: fdc and scsi put every VM of a single-device fleet in \
   lockstep (informational; fdc's walk-heavy workload is the worst \
   case), shadow_phase is the rollout \
   ladder's default shadow-phase shape — shadow_vms of vms walking, on \
   the worst-case device — the budgeted number.  ladder.* = one full \
   rollout ladder (retrained candidate): final rung, pinned revision, \
   rollback_latency_ticks (-1 when no rollback).  \
   rollout.threshold.overhead_max: fixed budget; CI fails if \
   rollout.shadow_phase.overhead exceeds it."

let rollout_bench () =
  section "Rollout: shadow-walk overhead and the candidate ladder";
  let vms = 3 in
  (* VM creation (the candidate checker's two arena allocations
     included) stays untimed: the budget bounds the steady-state walk. *)
  let ticks = if !quick then 32 else 48 in
  let pairs = if !quick then 24 else 28 in
  let shadow_fetch device =
    let w = Workload.Samples.find device in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    fun () ->
      Metrics.Spec_cache.built_retrained (module W) W.paper_version
        ~cases:!Metrics.Spec_cache.training_cases
  in
  (* Direct Vm loop (per-index shadow subset, which Supervisor's
     per-device options cannot express); same seeds for the on/off
     configurations of a row, so the workload streams are identical. *)
  let make_fleet device nvms shadow_pred =
    List.init nvms (fun i ->
        let opts =
          {
            (Fleet.Vm.default_options ~device) with
            Fleet.Vm.shadow =
              (if shadow_pred i then Some (shadow_fetch device) else None);
          }
        in
        Fleet.Vm.create ~index:i ~seed:(Int64.add !seed (Int64.of_int (31 * i))) opts)
  in
  (* One pair: both fleets built untimed, then each tick times one tick
     of every base VM and one of every shadow VM, alternating which side
     goes first.  Returns both sides' CPU seconds and the shadow fleet's
     reports. *)
  let timed_pair device nvms shadow_pred =
    let base = make_fleet device nvms (fun _ -> false)
    and shadow = make_fleet device nvms shadow_pred in
    Gc.compact ();
    let base_s = ref 0. and shadow_s = ref 0. in
    let tick_all vms acc =
      let t0 = Sys.time () in
      List.iter Fleet.Vm.tick vms;
      acc := !acc +. (Sys.time () -. t0)
    in
    for k = 1 to ticks do
      if k land 1 = 1 then begin
        tick_all base base_s;
        tick_all shadow shadow_s
      end
      else begin
        tick_all shadow shadow_s;
        tick_all base base_s
      end
    done;
    (!base_s, !shadow_s, List.map Fleet.Vm.report shadow)
  in
  let all _ = true in
  let rollout_default = Fleet.Rollout.default_config ~device:"fdc" in
  let configs =
    [
      (* Worst case: every VM of the walk-heaviest device in lockstep. *)
      ("fdc", "fdc", vms, all);
      ("scsi", "scsi", vms, all);
      (* The budgeted row: the rollout ladder's default shadow-phase
         shape (shadow_vms of vms walking) on the worst-case device. *)
      ( "shadow_phase",
        "fdc",
        rollout_default.Fleet.Rollout.vms,
        fun i -> i < rollout_default.Fleet.Rollout.shadow_vms );
    ]
  in
  let budget_overhead = ref nan in
  let rows =
    List.map
      (fun (row, device, nvms, pred) ->
        (* Warm base and candidate cache entries: the timed pairs measure
           serving, not training. *)
        ignore (timed_pair device nvms pred);
        let base_dt = ref 0. and sh_dt = ref 0. and last = ref [] in
        for _ = 1 to pairs do
          let b, s, rs = timed_pair device nvms pred in
          base_dt := !base_dt +. b;
          sh_dt := !sh_dt +. s;
          last := rs
        done;
        let base_dt = !base_dt and sh_dt = !sh_dt in
        let overhead = if base_dt > 0. then (sh_dt /. base_dt) -. 1.0 else 0.0 in
        if row = "shadow_phase" then budget_overhead := overhead;
        let agree, stricter, looser =
          List.fold_left
            (fun (a, s, l) (r : Fleet.Vm.report) ->
              match r.Fleet.Vm.r_shadow with
              | Some sh ->
                ( a + sh.Fleet.Vm.sh_agree,
                  s + sh.Fleet.Vm.sh_stricter,
                  l + sh.Fleet.Vm.sh_looser )
              | None -> (a, s, l))
            (0, 0, 0) !last
        in
        json_float (Printf.sprintf "rollout.%s.base_cpu_s" row) base_dt;
        json_float (Printf.sprintf "rollout.%s.shadow_cpu_s" row) sh_dt;
        json_float (Printf.sprintf "rollout.%s.overhead" row) overhead;
        json_int (Printf.sprintf "rollout.%s.agree" row) agree;
        json_int (Printf.sprintf "rollout.%s.stricter" row) stricter;
        json_int (Printf.sprintf "rollout.%s.looser" row) looser;
        [
          row;
          Printf.sprintf "%.0f ms" (base_dt *. 1000.);
          Printf.sprintf "%.0f ms" (sh_dt *. 1000.);
          Printf.sprintf "%+.1f%%" (overhead *. 100.);
          Printf.sprintf "%d/%d/%d" agree stricter looser;
        ])
      configs
  in
  Table.print
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Fleet"; "base"; "shadow"; "overhead"; "agree/str/loose" ]
    rows;
  Printf.printf
    "(%d ticks x %d pairs, CPU time summed per side over every tick, \
     base and shadow ticks alternating; shadow walks the retrained \
     candidate in lockstep; the budget applies to the shadow_phase row: \
     %+.1f%% vs %.0f%% max)\n"
    ticks pairs
    (100. *. !budget_overhead)
    (100. *. rollout_overhead_max);
  (* One full ladder: the retrained candidate must promote cleanly. *)
  Fleet.Rollout.reset_latches ();
  let device = "fdc" in
  let w = Workload.Samples.find device in
  let cfg =
    {
      (Fleet.Rollout.default_config ~device) with
      Fleet.Rollout.vms = (if !quick then 2 else 4);
      shadow_ticks = (if !quick then 6 else 12);
      canary_ticks = (if !quick then 4 else 8);
      seed = !seed;
    }
  in
  let recipe =
    Fleet.Rollout.retrained w ~cases:!Metrics.Spec_cache.training_cases
  in
  let t0 = Unix.gettimeofday () in
  let o = Fleet.Rollout.run cfg recipe in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "%a" Fleet.Rollout.pp_outcome o;
  Printf.printf "ladder wall-clock: %.1fs\n" dt;
  json_str "rollout.ladder.device" device;
  json_str "rollout.ladder.final"
    (Fleet.Rollout.rung_to_string o.Fleet.Rollout.o_final);
  json_int "rollout.ladder.base_revision" o.Fleet.Rollout.o_base_revision;
  json_int "rollout.ladder.pinned_revision" o.Fleet.Rollout.o_pinned_revision;
  json_int "rollout.ladder.rollback_latency_ticks"
    (match o.Fleet.Rollout.o_rollback with
    | Some rb -> rb.Fleet.Rollout.rb_latency_ticks
    | None -> -1);
  json_float "rollout.threshold.overhead_max" rollout_overhead_max;
  json_str "rollout.schema" rollout_schema

let () =
  let cmds = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | "--seed" | "--json" | "--jobs" -> ()
        | s when i > 1 && Sys.argv.(i - 1) = "--seed" -> seed := Int64.of_string s
        | s when i > 1 && Sys.argv.(i - 1) = "--json" -> json_path := Some s
        | s when i > 1 && Sys.argv.(i - 1) = "--jobs" ->
          jobs_requested := max 1 (int_of_string s)
        | s -> cmds := s :: !cmds)
    Sys.argv;
  let cmds = if !cmds = [] then [ "all" ] else List.rev !cmds in
  (* Resolve the whole command list before running any of it, so a typo
     late in the list costs nothing. *)
  let sections =
    [
      ("table2", table2);
      ("table3", table3);
      ("fig3", fig_storage ~latency:false);
      ("fig4", fig_storage ~latency:true);
      ("fig5", fig5);
      ("baseline", baseline);
      ("ablation", ablation);
      ("scale", scale_bench);
      ("rollout", rollout_bench);
    ]
  in
  let resolve = function
    | "all" -> fun () -> List.iter (fun (_, run) -> run ()) sections
    | name -> (
      match List.assoc_opt name sections with
      | Some run -> run
      | None ->
        Printf.eprintf "unknown command %s (%s|all)\n" name
          (String.concat "|" (List.map fst sections));
        exit 2)
  in
  let runs = List.map resolve cmds in
  jobs := min !jobs_requested (Runner.default_jobs ());
  if !jobs < !jobs_requested then
    Printf.printf "--jobs %d requested, %d core%s available: running %d\n"
      !jobs_requested (Runner.default_jobs ())
      (if Runner.default_jobs () = 1 then "" else "s")
      !jobs;
  (* Fail on an unwritable --json target now, not after the full run.
     The atomic writer needs a temp file beside the target, so probe
     exactly that: an existing file keeps its contents. *)
  (match !json_path with
  | Some path -> (
    try
      Sys.remove
        (Filename.temp_file ~temp_dir:(Filename.dirname path)
           (Filename.basename path) ".probe")
    with Sys_error msg ->
      Printf.eprintf "cannot write json output: %s\n" msg;
      exit 2)
  | None -> ());
  Metrics.Spec_cache.training_cases := (if !quick then 12 else 24);
  let t0 = Unix.gettimeofday () in
  List.iter (fun run -> run ()) runs;
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench time: %.1fs (%d job%s)\n" wall !jobs
    (if !jobs = 1 then "" else "s");
  match !json_path with
  | Some path ->
    (* meta.* fields describe the run itself and are the only keys that
       legitimately differ between --jobs settings. *)
    json_int "meta.jobs" !jobs;
    json_int "meta.jobs_requested" !jobs_requested;
    json_float "meta.wall_clock_s" wall;
    if Float.is_finite !soak_wall_s then
      json_float "meta.soak_wall_s" !soak_wall_s;
    json_write path;
    Printf.printf "machine-readable results written to %s\n" path
  | None -> ()
