module W = Workload.Samples
module Prng = Sedspec_util.Prng
module Cache = Metrics.Spec_cache

type io = {
  mutable ops : int;
  mutable failed : int;
  mutable read_bytes : int;
  mutable write_bytes : int;
}

let io = { ops = 0; failed = 0; read_bytes = 0; write_bytes = 0 }

type t = {
  ticks_per_round : int;
  tick : int -> unit;
  checkers : Sedspec.Checker.t list;
  seams : (Vmm.Machine.t * string) list;
  failures : unit -> (string * int) list;
  detect : string list;
  miss : string list;
}

let names = [ "pio"; "net"; "fleet" ]
let setup_repeats = function "pio" -> 3 | _ -> 5

let fail what =
  io.failed <- io.failed + 1;
  if io.failed <= 8 then prerr_endline ("perfbench: failed op: " ^ what)

let op_begin () =
  io.ops <- io.ops + 1;
  if !Trace.enabled then Trace.op_begin ()

let op_end () = if !Trace.enabled then Trace.op_end ()

let all_bytes_are b v =
  let rec go i = i >= Bytes.length b || (Char.code (Bytes.get b i) = v && go (i + 1)) in
  go 0

(* Set-up spans, in process CPU time. *)
let setup_spans = ref []
let tracing_setup = ref false

let span name f =
  if not !tracing_setup then f ()
  else begin
    let t0 = Sys.time () in
    let r = f () in
    setup_spans := (name, t0, Sys.time ()) :: !setup_spans;
    r
  end

type setup_costs = {
  mutable trace_bytes : int;
  mutable retained_words : float;
  mutable builds : int;
}

let costs = { trace_bytes = 0; retained_words = 0.0; builds = 0 }

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* The two training phases run apart from the cache, on a machine of
   their own, and their result is dropped before the cached build so the
   two never share the heap. *)
let standalone_pipeline (module D : W.DEVICE_WORKLOAD) =
  let m = D.make_machine D.paper_version in
  let trainer = D.trainer ~cases:!Cache.training_cases in
  let p1 =
    span "pipeline.collect" (fun () ->
        Sedspec.Pipeline.collect m ~device:D.device_name trainer)
  in
  costs.trace_bytes <- costs.trace_bytes + p1.Sedspec.Pipeline.trace_bytes;
  ignore
    (span "pipeline.construct" (fun () ->
         Sedspec.Pipeline.construct m ~device:D.device_name p1 trainer)
      : Sedspec.Pipeline.built)

(* Train every spec the workload enforces.  Traced runs first price the
   two pipeline phases, then measure what each cached build keeps live. *)
let train devices =
  if !tracing_setup then List.iter standalone_pipeline devices;
  List.iter
    (fun (module D : W.DEVICE_WORKLOAD) ->
      let before = if !tracing_setup then live_words () else 0.0 in
      ignore
        (span "spec_cache.built" (fun () -> Cache.built (module D) D.paper_version)
          : Sedspec.Pipeline.built);
      if !tracing_setup then begin
        costs.retained_words <- costs.retained_words +. (live_words () -. before);
        costs.builds <- costs.builds + 1
      end)
    devices

let protected (module D : W.DEVICE_WORKLOAD) =
  span "vm.create" (fun () -> Cache.fresh_protected_machine (module D) D.paper_version)

let checker_failures checkers machines () =
  let anomalies =
    List.fold_left (fun n c -> n + List.length (Sedspec.Checker.drain_anomalies c)) 0 checkers
  in
  let halted = List.length (List.filter Vmm.Machine.halted machines) in
  let warns =
    List.fold_left (fun n m -> n + List.length (Vmm.Machine.warnings m)) 0 machines
  in
  [ ("anomalies", anomalies); ("halted_machines", halted); ("warnings", warns) ]

(* fdc geometry: 80 tracks x 2 heads x 18 sectors. *)
let fdc_sectors = 2880
let sdhci_lbas = 4096

let pio ~seed =
  let fdc = W.find "fdc" and sdhci = W.find "sdhci" in
  train [ fdc; sdhci ];
  let mf, cf = protected fdc and ms, cs = protected sdhci in
  let fd = Workload.Fdc_driver.create mf in
  let sd = Workload.Sdhci_driver.create ms in
  if
    not
      (Workload.Io.ok (Workload.Fdc_driver.reset fd)
      && Workload.Io.ok (Workload.Fdc_driver.recalibrate fd ~drive:0)
      && Workload.Fdc_driver.sense_interrupt fd <> None
      && Workload.Sdhci_driver.init_card sd)
  then failwith "pio: device initialisation failed";
  let rng = Prng.create seed in
  let base_sector = Prng.int rng fdc_sectors and base_lba = Prng.int rng sdhci_lbas in
  let payloads = Array.init 8 (fun _ -> Prng.bytes rng 512) in
  let tick i =
    let s = (base_sector + i) mod fdc_sectors in
    let track = s / 36 mod 80 and head = s / 18 mod 2 and sect = 1 + (s mod 18) in
    let data = payloads.(i land 7) in
    op_begin ();
    let r = Workload.Fdc_driver.read_sector fd ~drive:0 ~head ~track ~sect in
    op_end ();
    (match r with
    | Some b when all_bytes_are b (Workload.Fdc_driver.expected_byte ~track ~head ~sect) ->
      io.read_bytes <- io.read_bytes + 512
    | _ -> fail "fdc sector read");
    op_begin ();
    let ok = Workload.Fdc_driver.write_sector fd ~drive:0 ~head ~track ~sect data in
    op_end ();
    if ok then io.write_bytes <- io.write_bytes + 512 else fail "fdc sector write";
    let lba = (base_lba + i) mod sdhci_lbas in
    op_begin ();
    let r = Workload.Sdhci_driver.read_block sd ~lba ~blksize:512 in
    op_end ();
    (match r with
    | Some b when all_bytes_are b (Workload.Sdhci_driver.expected_byte ~lba) ->
      io.read_bytes <- io.read_bytes + 512
    | _ -> fail "sdhci block read");
    op_begin ();
    let ok = Workload.Sdhci_driver.write_block sd ~lba data in
    op_end ();
    if ok then io.write_bytes <- io.write_bytes + 512 else fail "sdhci block write"
  in
  {
    ticks_per_round = 1;
    tick;
    checkers = [ cf; cs ];
    seams = [ (mf, "fdc"); (ms, "sdhci") ];
    failures = checker_failures [ cf; cs ] [ mf; ms ];
    detect = [ "CVE-2015-3456"; "CVE-2021-3409"; "GROWN-2021-3409" ];
    miss = [];
  }

let frame_bytes = 1460
let ping_bytes = 64

let net ~seed =
  let pcnet = W.find "pcnet" in
  train [ pcnet ];
  let m, c = protected pcnet in
  let d = Workload.Pcnet_driver.create m in
  if
    not
      (Workload.Io.ok (Workload.Pcnet_driver.reset d)
      && Workload.Pcnet_driver.init d ~mode:0 ()
      && Workload.Io.ok (Workload.Pcnet_driver.start d))
  then failwith "net: device initialisation failed";
  let rng = Prng.create seed in
  let frames n len = Array.init n (fun _ -> Prng.bytes rng len) in
  let tx = frames 8 frame_bytes and rx = frames 8 frame_bytes in
  let ping_out = frames 8 ping_bytes and ping_back = frames 8 ping_bytes in
  (* The host delivers [frame]; the guest reaps it from the RX ring. *)
  let deliver frame what =
    if not (Workload.Io.ok (Workload.Pcnet_driver.receive d frame)) then fail what
    else
      match Workload.Pcnet_driver.rx_frame d with
      | Some (len, got) when len = Bytes.length frame && Bytes.equal got frame ->
        io.read_bytes <- io.read_bytes + len
      | _ -> fail what
  in
  let tick i =
    let k = i land 7 in
    op_begin ();
    let ok = Workload.Pcnet_driver.transmit d [ tx.(k) ] in
    op_end ();
    if ok then io.write_bytes <- io.write_bytes + frame_bytes else fail "pcnet transmit";
    op_begin ();
    deliver rx.(k) "pcnet receive";
    op_end ();
    op_begin ();
    let ok = Workload.Pcnet_driver.transmit d [ ping_out.(k) ] in
    if ok then io.write_bytes <- io.write_bytes + ping_bytes else fail "ping request";
    deliver ping_back.(k) "ping reply";
    op_end ();
    if k = 7 then begin
      op_begin ();
      Workload.Pcnet_driver.ack_interrupts d;
      op_end ();
      (* The host reports no link (the default host value), as in training. *)
      op_begin ();
      let link = Workload.Pcnet_driver.read_bcr d 4 in
      op_end ();
      if link <> 0 then fail "link state"
    end
  in
  {
    ticks_per_round = 16;
    tick;
    checkers = [ c ];
    seams = [ (m, "pcnet") ];
    failures = checker_failures [ c ] [ m ];
    detect = [ "CVE-2015-7504"; "CVE-2015-7512"; "GROWN-2015-7512" ];
    miss = [];
  }

let fleet_devices = [ "ehci"; "pcnet"; "scsi"; "virtio" ]

let fleet ~seed =
  let devices = List.map W.find fleet_devices in
  train devices;
  let retrained (module D : W.DEVICE_WORKLOAD) () =
    Cache.built_retrained (module D) D.paper_version ~cases:!Cache.training_cases
  in
  List.iter
    (fun (module D : W.DEVICE_WORKLOAD) ->
      ignore
        (span "spec_cache.guard_profile" (fun () ->
             Cache.guard_profile (module D) D.paper_version)
          : Guard.Resp.profile);
      ignore
        (span "spec_cache.built_retrained" (retrained (module D))
          : Sedspec.Pipeline.built))
    devices;
  let rng = Prng.create seed in
  let vms =
    Array.init 8 (fun i ->
        let w = List.nth devices (i / 2) in
        let module D = (val w : W.DEVICE_WORKLOAD) in
        let opts =
          {
            (Fleet.Vm.default_options ~device:D.device_name) with
            Fleet.Vm.rare_prob = 0.0;
            guard = true;
            shadow = (if i mod 2 = 0 then Some (retrained w) else None);
          }
        in
        let seed = Prng.next rng in
        span "vm.create" (fun () -> Fleet.Vm.create ~index:i ~seed opts))
  in
  let part f =
    Array.to_list vms
    |> List.map (fun vm ->
           match f vm with
           | Some x -> x
           | None -> failwith "fleet: a VM failed to build")
  in
  let machines = part Fleet.Vm.machine and checkers = part Fleet.Vm.checker in
  let tick i =
    let vm = vms.(i land 7) in
    op_begin ();
    Fleet.Vm.tick vm;
    op_end ()
  in
  let failures () =
    let reports = Array.to_list (Array.map Fleet.Vm.report vms) in
    let sum f = List.fold_left (fun n r -> n + f r) 0 reports in
    [
      ( "anomalies",
        sum (fun r ->
            r.Fleet.Vm.r_anoms_param + r.r_anoms_indirect + r.r_anoms_cond
            + r.r_anoms_internal) );
      ("guard_anomalies", sum (fun r -> match r.Fleet.Vm.r_guard with Some (a, e) -> a + e | None -> 0));
      ("crashes", sum (fun r -> r.Fleet.Vm.r_crashes));
      ("halted_ticks", sum (fun r -> r.Fleet.Vm.r_halt_ticks));
      ("warnings", sum (fun r -> r.Fleet.Vm.r_warns));
      ("deadline_overruns", sum (fun r -> r.Fleet.Vm.r_deadline_overruns));
    ]
  in
  (* Two passes per round: a round then usually holds a whole major GC
     cycle of the checkpoint copies, so rounds cost alike. *)
  {
    ticks_per_round = 16;
    tick;
    checkers;
    seams = List.map2 (fun m d -> (m, d)) machines (List.concat_map (fun d -> [ d; d ]) fleet_devices);
    failures;
    detect = [ "CVE-2020-14364"; "CVE-2015-5158"; "CVE-2019-14835" ];
    miss = [ "CVE-2016-1568" ];
  }

let setup name ~seed ~traced =
  tracing_setup := traced;
  match name with
  | "pio" -> pio ~seed
  | "net" -> net ~seed
  | "fleet" -> fleet ~seed
  | other -> invalid_arg ("Workloads.setup: " ^ other)
