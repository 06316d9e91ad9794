(* The repository's benchmark: closed-loop protected device I/O, timed
   in short fixed-work rounds of process CPU time, with a separate traced
   run for per-layer costs.  See README.md for the workloads, the metrics
   and the noise profile that shaped the protocol.

   Usage:
     bench.exe --workload WORKLOAD --seed N --seconds S --trace 0|1
   where WORKLOAD is pio, net or fleet.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module Json = Sedspec_util.Json

(* Throughput is read at the 90th percentile of the per-round CPU cost
   per interaction, and tick latency at the 90th and 99th percentiles.
   The host moves between a normal and a 1.5-1.6x slower mode in episodes
   of seconds; which one dominates a run changes over minutes, but every
   run measured spent at least a tenth of its rounds in the slower mode.
   A low quantile or the median reads one mode in some runs and the other
   in the rest; the 90th percentile reads the same mode in every run
   (README.md has the measurements). *)
let round_q = 0.9

(* Untimed rounds before the first timed one (caches, lazy arenas, heap
   growth), and the timed rounds whose work counts must repeat exactly. *)
let warmup_rounds = 2
let window_rounds = 4
let min_rounds = 16


(* The traced run's seam self-times plus the residual must cover this
   share of the traced rounds' wall time; the rest is the benchmark's loop
   between ops (data checks) and the tracer's own bookkeeping. *)
let accounted_min = 0.95

let fatal fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  workload : string;
  seed : int64;
  seconds : int;
  trace : bool;
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref "" and seconds = ref "" and trace = ref "0" in
  let setup_only = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " pio, net or fleet");
      ("--seed", Arg.Set_string seed, " workload seed (integer)");
      ("--seconds", Arg.Set_string seconds, " measuring time (whole seconds)");
      ("--trace", Arg.Set_string trace, " 1 for the traced run");
      ("--setup-only", Arg.Set setup_only, " set up, print setup_s and exit");
    ]
  in
  Arg.parse specs (fun a -> fatal "unexpected argument %s" a) "bench.exe [options]";
  if not (List.mem !workload Workloads.names) then fatal "unknown workload %S" !workload;
  let seed =
    match Int64.of_string_opt !seed with Some s -> s | None -> fatal "bad --seed %S" !seed
  in
  let seconds =
    match int_of_string_opt !seconds with
    | Some s when s >= 1 -> s
    | _ when !setup_only -> 1
    | _ -> fatal "bad --seconds %S" !seconds
  in
  let trace =
    match !trace with "0" -> false | "1" -> true | t -> fatal "bad --trace %S" t
  in
  { workload = !workload; seed; seconds; trace; setup_only = !setup_only }

let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Work counters summed over the workload's enforcing checkers. *)
let interactions (wl : Workloads.t) =
  List.fold_left
    (fun n c -> n + (Sedspec.Checker.stats c).Sedspec.Checker.interactions)
    0 wl.checkers

let count_names =
  [
    "ops"; "interactions"; "read_bytes"; "write_bytes"; "nodes_walked";
    "deferred"; "minor_words"; "major_words"; "minor_gcs"; "major_gcs";
  ]

let counters (wl : Workloads.t) =
  let st = Gc.quick_stat () in
  let sum f = List.fold_left (fun n c -> n + f (Sedspec.Checker.stats c)) 0 wl.checkers in
  [|
    Workloads.io.ops;
    interactions wl;
    Workloads.io.read_bytes;
    Workloads.io.write_bytes;
    sum (fun s -> s.Sedspec.Checker.nodes_walked);
    sum (fun s -> s.Sedspec.Checker.deferred);
    int_of_float st.Gc.minor_words;
    int_of_float st.Gc.major_words;
    st.Gc.minor_collections;
    st.Gc.major_collections;
  |]

type run = {
  rounds : int;
  round_cpu : float array;  (** CPU seconds per timed round. *)
  round_ia : float array;  (** Interactions per timed round. *)
  round_traced : bool array;
  tick_cpu : float array;  (** CPU seconds per tick. *)
  window : Stats.counts;  (** Work counts of the first [window_rounds]. *)
}

let rounds_cap = 1 lsl 16
let ticks_cap = 1 lsl 19

(* Timed rounds until [seconds] of wall time have passed.  Round [r] is
   traced when [trace_round r]: the tracer's interposer wrappers are
   swapped in for exactly those rounds, and [on_traced r] folds them. *)
let measure (wl : Workloads.t) ~seconds ~trace_round ~on_traced =
  let tpr = wl.ticks_per_round in
  let round_cpu = Array.make rounds_cap 0.0 and round_ia = Array.make rounds_cap 0.0 in
  let round_traced = Array.make rounds_cap false in
  let tick_cpu = Array.make ticks_cap 0.0 in
  let originals =
    List.map
      (fun (m, d) ->
        match Vmm.Machine.interposer_of m d with
        | Some ip -> (m, d, ip)
        | None -> fatal "no interposer installed on %s" d)
      wl.seams
  in
  let wrapped = List.map (fun (m, d, ip) -> (m, d, Trace.wrap ip)) originals in
  let install = List.iter (fun (m, d, ip) -> Vmm.Machine.set_interposer m d ip) in
  let first_tick = warmup_rounds * tpr in
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let window_start = ref [||] and window = ref [] in
  let r = ref 0 in
  while
    !r < rounds_cap
    && (!r + 1) * tpr <= ticks_cap
    && (!r < min_rounds || Unix.gettimeofday () < deadline)
  do
    let i = !r in
    let traced = trace_round i in
    if i = 0 then window_start := counters wl;
    if traced then begin
      install wrapped;
      Trace.enabled := true;
      Trace.start_round ()
    end;
    let ia0 = interactions wl in
    let c0 = Sys.time () in
    for k = 0 to tpr - 1 do
      let t0 = Sys.time () in
      wl.tick (first_tick + (i * tpr) + k);
      tick_cpu.((i * tpr) + k) <- Sys.time () -. t0
    done;
    round_cpu.(i) <- Sys.time () -. c0;
    round_ia.(i) <- float_of_int (interactions wl - ia0);
    round_traced.(i) <- traced;
    if traced then begin
      on_traced i;
      Trace.enabled := false;
      install originals
    end;
    if i + 1 = window_rounds then begin
      let fin = counters wl in
      window := List.mapi (fun k name -> (name, fin.(k) - !window_start.(k))) count_names
    end;
    incr r
  done;
  {
    rounds = !r;
    round_cpu = Array.sub round_cpu 0 !r;
    round_ia = Array.sub round_ia 0 !r;
    round_traced = Array.sub round_traced 0 !r;
    tick_cpu = Array.sub tick_cpu 0 (!r * tpr);
    window = !window;
  }

let warm_up (wl : Workloads.t) =
  for i = 0 to (warmup_rounds * wl.ticks_per_round) - 1 do
    wl.tick i
  done

(* Set up in a fresh process of this executable and return its setup_s:
   each repeat pays the whole cold start, as a user does. *)
let setup_in_child a =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; a.workload; "--seed"; Int64.to_string a.seed; "--setup-only" |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match Scanf.sscanf_opt (String.trim out) "setup_s %f" Fun.id with
    | Some s -> s
    | None -> fatal "set-up child printed %S" out)
  | _ -> fatal "set-up child failed"

(* The detection gate: replay each catalogued exploit against a freshly
   protected machine and require the paper's verdict. *)
let gate (wl : Workloads.t) =
  let case ~must_miss cve =
    let r = Metrics.Case_study.run (Attacks.Attack.find cve) in
    let missed =
      List.for_all (fun o -> not o.Metrics.Case_study.detected) r.Metrics.Case_study.per_strategy
    in
    (cve, Metrics.Case_study.matches_expectation r && missed = must_miss)
  in
  List.map (case ~must_miss:false) wl.detect @ List.map (case ~must_miss:true) wl.miss

(* Work counts must repeat exactly between runs of one seed, so each run
   records its window and compares it with any earlier run's record for
   the same executable, workload, seed and trace flag. *)
let record_dir = ".perfbench"

let check_counts a (counts : Stats.counts) =
  let digest = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat record_dir
      (Printf.sprintf "counts-%s-%Ld-t%d-%s.txt" a.workload a.seed
         (if a.trace then 1 else 0) (String.sub digest 0 12))
  in
  if not (Sys.file_exists record_dir) then Sys.mkdir record_dir 0o755;
  if Sys.file_exists path then
    Stats.counts_diff (Stats.counts_of_string (In_channel.with_open_bin path In_channel.input_all)) counts
  else begin
    Out_channel.with_open_bin path (fun oc -> output_string oc (Stats.counts_to_string counts));
    []
  end

let quartiles_line label unit scale xs =
  let s = Stats.sorted xs in
  Printf.printf "  %-26s min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g %s (n=%d)\n" label
    (scale *. s.(0)) (scale *. Stats.quantile s 0.25) (scale *. Stats.quantile s 0.5)
    (scale *. Stats.quantile s 0.75) (scale *. s.(Array.length s - 1)) unit (Array.length s)

(* Print each metric with its unit and sample count, then the one-line
   JSON result. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit, note) ->
      if not (Float.is_finite v) then fatal "metric %s is not finite" name;
      Printf.printf "  %-30s %14.6g %-6s %s\n" name v unit note)
    metrics;
  let metric (name, v, unit, _) =
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ])
  in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj (List.map metric metrics));
      ]
  in
  print_endline
    (String.trim (String.map (fun c -> if c = '\n' then ' ' else c) (Json.to_string ~indent:0 json)))

let end_to_end run ~setup_s ~child_setups ~peak =
  let setups = setup_s :: child_setups in
  let ticks = Array.length run.tick_cpu in
  let sorted = Stats.sorted run.tick_cpu in
  let beyond q = ticks - int_of_float (Float.ceil (q *. float_of_int ticks)) in
  [
    ( "setup_s",
      Stats.median (Array.of_list setups),
      "s",
      Printf.sprintf "(median of %d set-ups: %s)" (List.length setups)
        (String.concat " " (List.map (Printf.sprintf "%.3f") setups)) );
    ("peak_mem_mb", peak, "MB", "(VmHWM after the timed rounds, n=1)");
    ( "interactions_per_cpu_s",
      Stats.quantile_rate ~work:run.round_ia ~cost:run.round_cpu ~q:round_q,
      "1/s",
      Printf.sprintf "(p90 cost of n=%d rounds)" run.rounds );
    ( "tick_p90_ms",
      1e3 *. Stats.quantile sorted 0.9,
      "ms",
      Printf.sprintf "(n=%d ticks, %d beyond)" ticks (beyond 0.9) );
    ( "tick_p99_ms",
      1e3 *. Stats.quantile sorted 0.99,
      "ms",
      Printf.sprintf "(n=%d ticks, %d beyond)" ticks (beyond 0.99) );
  ]

(* Per-layer metrics of a traced run: times from every traced round
   ([all]); words and counts from the count window ([win]), so they repeat
   exactly. *)
let per_layer (wl : Workloads.t) run ~(all : Trace.totals) ~(win : Trace.totals) =
  let ia = float_of_int all.interactions and wia = float_of_int win.interactions in
  let self k = all.self_ns.(k) and words k = win.self_words.(k) in
  let op_ns = Array.fold_left ( +. ) 0.0 all.self_ns in
  let window name = float_of_int (List.assoc name run.window) in
  let window_ticks = float_of_int (window_rounds * wl.ticks_per_round) in
  let spans prefix =
    List.filter (fun (n, _, _) -> String.starts_with ~prefix n) !Workloads.setup_spans
  in
  let span_s prefix = List.fold_left (fun s (_, t0, t1) -> s +. (t1 -. t0)) 0.0 (spans prefix) in
  let n_spans prefix = Printf.sprintf "(n=%d spans)" (List.length (spans prefix)) in
  (* Traced against untraced rounds after the count window (they
     alternate), at the same quantile as the throughput. *)
  let rate traced =
    let pick xs =
      List.filteri (fun r _ -> r >= window_rounds && run.round_traced.(r) = traced)
        (Array.to_list xs)
      |> Array.of_list
    in
    Stats.quantile_rate ~work:(pick run.round_ia) ~cost:(pick run.round_cpu) ~q:round_q
  in
  let per_ia = Printf.sprintf "(n=%.0f interactions, %d traced rounds)" ia all.rounds in
  let in_window = Printf.sprintf "(count window: n=%.0f interactions)" wia in
  let window_n = Printf.sprintf "(count window: n=%.0f ticks)" window_ticks in
  [
    ("checker.before_ns_per_ia", self Trace.k_before /. ia, "ns", per_ia);
    ("checker.after_ns_per_ia", self Trace.k_after /. ia, "ns", per_ia);
    ("checker.nodes_per_ia", window "nodes_walked" /. window "interactions", "count", in_window);
    ("checker.deferred_per_kia", 1000.0 *. window "deferred" /. window "interactions", "count", in_window);
    ( "checker.minor_words_per_ia",
      (words Trace.k_before +. words Trace.k_after) /. wia,
      "count",
      in_window );
    ("checker.share_of_op", (self Trace.k_before +. self Trace.k_after) /. op_ns, "frac", per_ia);
    ("interp.ns_per_ia", self Trace.k_interp /. ia, "ns", per_ia);
    ("interp.minor_words_per_ia", words Trace.k_interp /. wia, "count", in_window);
    ("vmm.residual_ns_per_ia", self Trace.k_op /. ia, "ns", per_ia);
    ("vmm.minor_words_per_ia", words Trace.k_op /. wia, "count", in_window);
    ("fleet.interposer_ns_per_ia", (self Trace.k_before +. self Trace.k_after) /. ia, "ns", per_ia);
    ( "fleet.outside_io_ms_per_tick",
      self Trace.k_op /. float_of_int (all.rounds * wl.ticks_per_round) /. 1e6,
      "ms",
      Printf.sprintf "(n=%d ticks)" (all.rounds * wl.ticks_per_round) );
    ("fleet.major_words_per_tick", window "major_words" /. window_ticks, "count", window_n);
    ("fleet.major_gcs_per_ktick", 1000.0 *. window "major_gcs" /. window_ticks, "count", window_n);
    ( "fleet.create_ms_per_vm",
      1e3 *. span_s "vm.create" /. float_of_int (List.length (spans "vm.create")),
      "ms",
      n_spans "vm.create" );
    ("spec_cache.train_s", span_s "spec_cache.", "s", n_spans "spec_cache.");
    ("pipeline.collect_s", span_s "pipeline.collect", "s", n_spans "pipeline.collect");
    ("pipeline.construct_s", span_s "pipeline.construct", "s", n_spans "pipeline.construct");
    ( "pipeline.trace_bytes",
      float_of_int Workloads.costs.trace_bytes,
      "bytes",
      n_spans "pipeline.collect" );
    ( "spec_cache.retained_mb",
      Workloads.costs.retained_words *. 8.0 /. 1048576.0 /. float_of_int Workloads.costs.builds,
      "MB",
      Printf.sprintf "(n=%d cached builds)" Workloads.costs.builds );
    ( "trace.overhead_frac",
      (rate false /. rate true) -. 1.0,
      "frac",
      Printf.sprintf "(traced against untraced rounds, n=%d rounds)" (run.rounds - window_rounds) );
    ( "trace.accounted_frac",
      op_ns /. all.round_ns,
      "frac",
      Printf.sprintf "(of traced round time; must be >= %.2f)" accounted_min );
  ]

let main () =
  let a = parse_args () in
  if a.setup_only then begin
    let wl = Workloads.setup a.workload ~seed:a.seed ~traced:false in
    warm_up wl;
    (* Fixed width, so the parent's reading of it allocates the same on
       every run and its work counts stay exact. *)
    Printf.printf "setup_s %016.6f\n" (Sys.time ());
    exit 0
  end;
  (* [setup_s] is the median of the set-up repeats: this process plus
     set-up-only children. *)
  let child_setups =
    if a.trace then []
    else List.init (Workloads.setup_repeats a.workload - 1) (fun _ -> setup_in_child a)
  in
  let wl = Workloads.setup a.workload ~seed:a.seed ~traced:a.trace in
  warm_up wl;
  let setup_s = Sys.time () in
  let all = Trace.create_totals () and win = Trace.create_totals () in
  let run =
    if a.trace then
      measure wl ~seconds:a.seconds
        ~trace_round:(fun r -> r < window_rounds || r mod 2 = 0)
        ~on_traced:(fun r ->
          Trace.end_round all;
          if r < window_rounds then Trace.end_round win)
    else measure wl ~seconds:a.seconds ~trace_round:(fun _ -> false) ~on_traced:ignore
  in
  let peak = peak_mem_mb () in
  let failures = wl.failures () in
  let gate = gate wl in
  let diff = check_counts a run.window in
  Printf.printf "perfbench workload=%s seed=%Ld trace=%d seconds=%d\n" a.workload a.seed
    (if a.trace then 1 else 0) a.seconds;
  Printf.printf "  %d rounds of %d ticks, count window %d rounds\n" run.rounds
    wl.ticks_per_round window_rounds;
  quartiles_line "round cpu" "ms" 1e3 run.round_cpu;
  quartiles_line "round cpu per interaction" "us" 1e6
    (Array.mapi (fun i c -> c /. run.round_ia.(i)) run.round_cpu);
  quartiles_line "tick cpu" "ms" 1e3 run.tick_cpu;
  let show l = String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) l) in
  Printf.printf "  counts (window):%s\n" (show run.window);
  List.iter
    (fun (k, v1, v2) ->
      let s = function Some v -> string_of_int v | None -> "-" in
      Printf.printf "  COUNT MISMATCH %s: recorded %s, this run %s\n" k (s v1) (s v2))
    diff;
  Printf.printf "  failures:%s\n" (show failures);
  List.iter
    (fun (cve, ok) -> Printf.printf "  gate %-16s %s\n" cve (if ok then "ok" else "VIOLATED"))
    gate;
  (* Operations: every workload op, every gate case, the count check and,
     in a traced run, the trace self-check. *)
  let trace_ok =
    (not a.trace)
    || all.errors = []
       && all.round_ns > 0.0
       &&
       let accounted = Array.fold_left ( +. ) 0.0 all.self_ns /. all.round_ns in
       accounted >= accounted_min && accounted <= 1.0
  in
  List.iter (Printf.printf "  TRACE ERROR %s\n") all.errors;
  let failed =
    Workloads.io.failed
    + List.fold_left (fun n (_, v) -> n + v) 0 failures
    + List.length (List.filter (fun (_, ok) -> not ok) gate)
    + (if diff = [] then 0 else 1)
    + if trace_ok then 0 else 1
  in
  let attempted =
    Workloads.io.ops + List.length gate + 1 + if a.trace then 1 else 0
  in
  let metrics =
    if a.trace then begin
      Trace.write
        (Filename.concat record_dir (Printf.sprintf "trace-%s-%Ld.tsv" a.workload a.seed))
        ~setup:(List.rev !Workloads.setup_spans);
      per_layer wl run ~all ~win
    end
    else end_to_end run ~setup_s ~child_setups ~peak
  in
  emit ~correct:(failed = 0) ~attempted ~failed metrics

let () = main ()
