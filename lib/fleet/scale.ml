module Runner = Sedspec_util.Runner
module Checker = Sedspec.Checker
module W = Workload.Samples

type options = { vms : int; ticks : int; seed : int64; jobs : int }

(* Cells go round-robin over the five paper devices; each device's stream
   is 2 soak cases of 12 ops. *)
let devices = [ "fdc"; "ehci"; "pcnet"; "sdhci"; "scsi" ]
let capture_cases = 2
let capture_ops = 12

type result = {
  sc_vms : int;
  sc_ticks : int;
  sc_interactions : int;
  sc_nodes_walked : int;
  sc_anomalies : int;
  sc_builds : int;
  sc_shared : bool;
  sc_create_s : float;
  sc_wall_s : float;
  sc_throughput_ips : float;
  sc_walk_ns_per_node : float;
  sc_p50_tick_ns : float;
  sc_p99_tick_ns : float;
  sc_bytes_per_vm : float;
  sc_minor_words_per_tick : float;
  sc_minor_words_per_walk : float;
}

(* One per device: the shared immutable arena, its spec, the live
   control structure and guest of a single capture machine (per-VM
   machines are exactly what this harness exists to avoid paying for),
   and a benign request stream recorded off that machine. *)
type device_ctx = {
  dc_arena : Sedspec.Compile.t;
  dc_spec : Sedspec.Es_cfg.t;
  dc_device_arena : Devir.Arena.t;
  dc_guest : Interp.guest;
  dc_reqs : Vmm.Machine.request array;
}

(* A scale cell: the per-VM unit of this harness — one checker (and
   therefore one cursor and one shadow/work pair) against its
   device's shared arena.  [bytes/VM] measures exactly this marginal
   footprint. *)
type cell = {
  c_checker : Checker.t;
  c_ip : Vmm.Machine.interposer;
  c_reqs : Vmm.Machine.request array;
}

let validate opts =
  if opts.vms < 1 then invalid_arg "Scale.run: vms must be >= 1";
  if opts.ticks < 1 then invalid_arg "Scale.run: ticks must be >= 1"

let done_outcome = Interp.Event.Done { response = None }

(* Reduce a captured stream to its replay-stable benign core.  On the
   live machine every captured request is benign, but a device-less
   replay is only state-faithful when the pre-execution walk's shadow
   commit models the interaction's whole effect; requests whose checks
   depend on device work the walk does not simulate (asynchronous ring
   processing, DMA completion) drift off the trained branch directions
   and fire false conditional-jump anomalies.  Replay the stream a few
   full passes through a scratch checker, drop every request that fires
   an anomaly, and iterate until a multi-pass replay is anomaly-free —
   multi-pass because the steady-state loop re-enters the stream from
   its own end state, not from pristine. *)
let stable_stream arena spec device_arena guest reqs =
  let reqs = ref reqs in
  let dirty = ref true in
  let rounds = ref 0 in
  while !dirty && !rounds < 10 do
    incr rounds;
    let checker =
      Checker.create ~compiled:arena ~spec ~device_arena ~guest ()
    in
    let ip = Checker.interposer checker in
    let bad = Hashtbl.create 16 in
    for _pass = 1 to 3 do
      Array.iteri
        (fun i r ->
          ignore (ip.Vmm.Machine.before r : Vmm.Machine.verdict);
          ignore (ip.Vmm.Machine.after r done_outcome : Vmm.Machine.verdict);
          if Checker.drain_anomalies checker <> [] then
            Hashtbl.replace bad i ())
        !reqs
    done;
    if Hashtbl.length bad = 0 then dirty := false
    else
      reqs :=
        Array.of_list
          (List.filteri
             (fun i _ -> not (Hashtbl.mem bad i))
             (Array.to_list !reqs))
  done;
  if !dirty || Array.length !reqs = 0 then
    invalid_arg "Scale: capture stream did not stabilise to a benign core";
  !reqs

let make_device_ctx opts device =
  let w = W.find device in
  let module D = (val w : W.DEVICE_WORKLOAD) in
  let b = Metrics.Spec_cache.built w D.paper_version in
  let m = D.make_machine D.paper_version in
  let reqs = ref [] in
  let (_ : unit -> unit) =
    Vmm.Machine.add_interposer m D.device_name
      {
        before =
          (fun r ->
            reqs := r :: !reqs;
            Vmm.Machine.Allow);
        after = (fun _ _ -> Vmm.Machine.Allow);
      }
  in
  let rng = Sedspec_util.Prng.create opts.seed in
  for _ = 1 to capture_cases do
    D.soak_case ~mode:W.Sequential ~rng ~rare_prob:0.0 ~ops:capture_ops m
  done;
  let interp = Vmm.Machine.interp_of m D.device_name in
  (* Return the control structure to its pristine state: every cell's
     shadow initialises from it, exactly like a fresh attach. *)
  Devir.Arena.reset (Interp.arena interp);
  let guest = Vmm.Guest_mem.access (Vmm.Machine.ram m) in
  let stream =
    stable_stream b.Sedspec.Pipeline.arena b.Sedspec.Pipeline.spec
      (Interp.arena interp) guest
      (Array.of_list (List.rev !reqs))
  in
  {
    dc_arena = b.Sedspec.Pipeline.arena;
    dc_spec = b.Sedspec.Pipeline.spec;
    dc_device_arena = Interp.arena interp;
    dc_guest = guest;
    dc_reqs = stream;
  }

let make_cell ctx =
  let checker =
    Checker.create ~compiled:ctx.dc_arena ~spec:ctx.dc_spec
      ~device_arena:ctx.dc_device_arena ~guest:ctx.dc_guest ()
  in
  { c_checker = checker; c_ip = Checker.interposer checker; c_reqs = ctx.dc_reqs }

(* One supervision tick: replay the device's benign stream through the
   full protection path (pre-execution walk, verdict, shadow commit). *)
let tick_cell cell =
  let reqs = cell.c_reqs in
  for i = 0 to Array.length reqs - 1 do
    let r = reqs.(i) in
    ignore (cell.c_ip.Vmm.Machine.before r : Vmm.Machine.verdict);
    ignore (cell.c_ip.Vmm.Machine.after r done_outcome : Vmm.Machine.verdict)
  done

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run opts =
  validate opts;
  let builds0 = Metrics.Spec_cache.builds () in
  let ctxs = Array.of_list (List.map (make_device_ctx opts) devices) in
  let n_devices = Array.length ctxs in
  (* Cell creation, serially: the marginal per-VM footprint and cost. *)
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = Unix.gettimeofday () in
  let cells =
    Array.init opts.vms (fun i -> make_cell ctxs.(i mod n_devices))
  in
  let create_s = Unix.gettimeofday () -. t0 in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let bytes_per_vm =
    float_of_int ((live1 - live0) * (Sys.word_size / 8))
    /. float_of_int opts.vms
  in
  let shared =
    Array.for_all
      (fun i ->
        match Checker.compiled_arena cells.(i).c_checker with
        | Some a -> a == ctxs.(i mod n_devices).dc_arena
        | None -> false)
      (Array.init opts.vms Fun.id)
  in
  (* Partition into [jobs] contiguous chunks; each task owns its cells. *)
  let jobs = max 1 opts.jobs in
  let chunks =
    List.init jobs (fun j ->
        let lo = opts.vms * j / jobs and hi = opts.vms * (j + 1) / jobs in
        (lo, hi))
  in
  let stats_sum () =
    Array.fold_left
      (fun acc c ->
        let s = Checker.stats c.c_checker in
        ( fst acc + s.Checker.interactions,
          snd acc + s.Checker.nodes_walked ))
      (0, 0) cells
  in
  (* Allocation probe: one untimed pass per cell, per-domain
     [Gc.minor_words] deltas summed across tasks (minor heaps are
     per-domain in OCaml 5). *)
  let ia0, _ = stats_sum () in
  let probe_words =
    Runner.map ~jobs
      (fun (lo, hi) ->
        (* Warm pass: fills per-cursor stacks, hashtable probes, etc. *)
        for i = lo to hi - 1 do
          tick_cell cells.(i)
        done;
        let w0 = Gc.minor_words () in
        for i = lo to hi - 1 do
          tick_cell cells.(i)
        done;
        Gc.minor_words () -. w0)
      chunks
    |> List.fold_left ( +. ) 0.0
  in
  let ia1, n1 = stats_sum () in
  let probe_interactions = (ia1 - ia0) / 2 in
  let minor_words_per_tick = probe_words /. float_of_int opts.vms in
  let minor_words_per_walk =
    if probe_interactions = 0 then 0.0
    else probe_words /. float_of_int probe_interactions
  in
  (* Timed phase: per-tick latencies plus fleet throughput. *)
  let wall0 = Unix.gettimeofday () in
  let samples =
    Runner.map ~jobs
      (fun (lo, hi) ->
        let out = Array.make ((hi - lo) * opts.ticks) 0.0 in
        let k = ref 0 in
        for _ = 1 to opts.ticks do
          for i = lo to hi - 1 do
            let s0 = Unix.gettimeofday () in
            tick_cell cells.(i);
            out.(!k) <- Unix.gettimeofday () -. s0;
            incr k
          done
        done;
        out)
      chunks
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let ia2, n2 = stats_sum () in
  let samples = Array.concat samples in
  Array.sort compare samples;
  let busy_s = Array.fold_left ( +. ) 0.0 samples in
  let interactions = ia2 - ia1 in
  let nodes = n2 - n1 in
  let anomalies =
    Array.fold_left
      (fun acc c -> acc + List.length (Checker.anomalies c.c_checker))
      0 cells
  in
  {
    sc_vms = opts.vms;
    sc_ticks = opts.ticks;
    sc_interactions = interactions;
    sc_nodes_walked = nodes;
    sc_anomalies = anomalies;
    sc_builds = Metrics.Spec_cache.builds () - builds0;
    sc_shared = shared;
    sc_create_s = create_s;
    sc_wall_s = wall_s;
    sc_throughput_ips =
      (if wall_s > 0.0 then float_of_int interactions /. wall_s else 0.0);
    sc_walk_ns_per_node =
      (if nodes > 0 then busy_s *. 1e9 /. float_of_int nodes else 0.0);
    sc_p50_tick_ns = percentile samples 0.50 *. 1e9;
    sc_p99_tick_ns = percentile samples 0.99 *. 1e9;
    sc_bytes_per_vm = bytes_per_vm;
    sc_minor_words_per_tick = minor_words_per_tick;
    sc_minor_words_per_walk = minor_words_per_walk;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%d VMs x %d ticks: %d interactions in %.3fs (%.0f ia/s)@,\
     builds=%d shared=%b create=%.3fs bytes/VM=%.0f@,\
     p50 tick=%.0fns p99 tick=%.0fns walk=%.1fns/node@,\
     minor words: %.1f/tick %.2f/walk; anomalies=%d@]"
    r.sc_vms r.sc_ticks r.sc_interactions r.sc_wall_s r.sc_throughput_ips
    r.sc_builds r.sc_shared r.sc_create_s r.sc_bytes_per_vm r.sc_p50_tick_ns
    r.sc_p99_tick_ns r.sc_walk_ns_per_node r.sc_minor_words_per_tick
    r.sc_minor_words_per_walk r.sc_anomalies
