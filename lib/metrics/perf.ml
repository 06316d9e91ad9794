type storage_point = {
  block_bytes : int;
  base_s : float;
  protected_s : float;
  norm_throughput : float;
  norm_latency : float;
}

let storage_devices = [ "fdc"; "ehci"; "sdhci"; "scsi" ]

let storage_blocks = function
  | "fdc" ->
    (* Capped by the 2.88 MB medium and by PIO cost. *)
    [ 512; 4096; 65536 ]
  | "ehci" -> [ 512; 4096; 65536; 524288 ]
  | _ -> [ 512; 4096; 65536; 524288; 1048576 ]

let now () = Unix.gettimeofday ()

let exit_us = 40.0

type side = { wall_s : float; exits : int }

let seconds ~exit_us s = s.wall_s +. (float_of_int s.exits *. exit_us *. 1e-6)

(* Wall-clock time, not CPU time: the bench fans sweeps out over --jobs
   domains, and process CPU time would sum them. *)
let timed m f =
  let exits0 = Vmm.Machine.exits m and t0 = now () in
  f ();
  { wall_s = now () -. t0; exits = Vmm.Machine.exits m - exits0 }

(* [measure] on a fresh machine, then on a fresh protected one. *)
let sides device measure =
  let (module W : Workload.Samples.DEVICE_WORKLOAD) = Workload.Samples.find device in
  let base = measure (W.make_machine W.paper_version) in
  let m_prot, _checker = Spec_cache.fresh_protected_machine (module W) W.paper_version in
  (base, measure m_prot)

(* One "record" transfer of [block] bytes on each device's natural bulk
   path.  Sector/LBA addresses advance so caching effects cannot differ
   between runs. *)
let storage_op m device ~write ~block ~cursor =
  match device with
  | "fdc" ->
    let d = Workload.Fdc_driver.create m in
    let sectors = max 1 (block / 512) in
    for s = 0 to sectors - 1 do
      let abs_sector = !cursor + s in
      let track = abs_sector / 36 mod 80
      and head = abs_sector / 18 mod 2
      and sect = 1 + (abs_sector mod 18) in
      if write then
        ignore
          (Workload.Fdc_driver.write_sector d ~drive:0 ~head ~track ~sect
             (Bytes.make 512 'w'))
      else ignore (Workload.Fdc_driver.read_sector d ~drive:0 ~head ~track ~sect)
    done;
    cursor := !cursor + sectors
  | "sdhci" ->
    let d = Workload.Sdhci_driver.create m in
    let blkcnt = max 1 (block / 512) in
    if write then
      ignore
        (Workload.Sdhci_driver.write_multi d ~lba:!cursor ~blksize:512 ~blkcnt
           ~dma_addr:0xA0000L)
    else
      ignore
        (Workload.Sdhci_driver.read_multi d ~lba:!cursor ~blksize:512 ~blkcnt
           ~dma_addr:0xA0000L);
    cursor := !cursor + blkcnt
  | "scsi" ->
    let d = Workload.Scsi_driver.create m in
    let blocks = max 1 (block / 512) in
    if write then ignore (Workload.Scsi_driver.write10 d ~lba:!cursor ~blocks)
    else ignore (Workload.Scsi_driver.read10 d ~lba:!cursor ~blocks);
    cursor := !cursor + blocks
  | "ehci" ->
    (* USB mass-storage surrogate: 4 KiB control transfers. *)
    let d = Workload.Ehci_driver.create m in
    let chunk = min block 4096 in
    let chunks = max 1 (block / chunk) in
    for _ = 1 to chunks do
      if write then ignore (Workload.Ehci_driver.control_out d (Bytes.make chunk 'u'))
      else ignore (Workload.Ehci_driver.get_descriptor d ~dtype:2 ~length:chunk)
    done
  | other -> invalid_arg ("Perf.storage_op: " ^ other)

let storage_setup m device =
  match device with
  | "fdc" ->
    let d = Workload.Fdc_driver.create m in
    ignore (Workload.Fdc_driver.reset d);
    ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
    ignore (Workload.Fdc_driver.sense_interrupt d)
  | "sdhci" ->
    ignore (Workload.Sdhci_driver.init_card (Workload.Sdhci_driver.create m))
  | "scsi" ->
    let d = Workload.Scsi_driver.create m in
    ignore (Workload.Scsi_driver.reset d);
    ignore (Workload.Scsi_driver.test_unit_ready d)
  | "ehci" ->
    let d = Workload.Ehci_driver.create m in
    ignore (Workload.Ehci_driver.reset_port d);
    ignore (Workload.Ehci_driver.set_address d 1)
  | _ -> ()

(* EHCI's descriptor reads are capped by the model at small sizes; pull the
   effective volume down so runs stay comparable. *)
let time_volume m device ~write ~block ~total =
  let cursor = ref 0 in
  storage_setup m device;
  (* Warm up caches and lazy structures before timing. *)
  for _ = 1 to 2 do
    storage_op m device ~write ~block:512 ~cursor
  done;
  let ops = max 1 (total / max block 1) in
  timed m (fun () ->
      for _ = 1 to ops do
        storage_op m device ~write ~block ~cursor
      done)

let storage_sides ~total_bytes ~device ~write ~block =
  let total =
    (* FDC is pure PIO (two orders of magnitude more exits per byte), and
       its medium caps at 2.88 MB; keep its volume small. *)
    if device = "fdc" then min total_bytes 65536 else total_bytes
  in
  sides device (fun m -> time_volume m device ~write ~block ~total)

let storage_sweep ?(total_bytes = 524288) ~device ~write () =
  List.map
    (fun block ->
      let base, prot = storage_sides ~total_bytes ~device ~write ~block in
      let base_s = seconds ~exit_us base
      and protected_s = seconds ~exit_us prot in
      {
        block_bytes = block;
        base_s;
        protected_s;
        norm_throughput = (if protected_s > 0.0 then base_s /. protected_s else 1.0);
        norm_latency = (if base_s > 0.0 then protected_s /. base_s else 1.0);
      })
    (storage_blocks device)

type net_kind = Tcp_up | Tcp_down | Udp_up | Udp_down

let net_kind_to_string = function
  | Tcp_up -> "TCP up"
  | Tcp_down -> "TCP down"
  | Udp_up -> "UDP up"
  | Udp_down -> "UDP down"

type net_point = {
  kind : net_kind;
  base_mbps : float;
  protected_mbps : float;
  overhead_pct : float;
}

let mtu_payload = 1460

let net_run m kind ~total_bytes =
  let d = Workload.Pcnet_driver.create m in
  ignore (Workload.Pcnet_driver.reset d);
  ignore (Workload.Pcnet_driver.init d ~mode:0 ());
  ignore (Workload.Pcnet_driver.start d);
  let frames = max 1 (total_bytes / mtu_payload) in
  let payload = Bytes.make mtu_payload 'p' in
  let ack = Bytes.make 64 'a' in
  (* Warm up both directions before timing. *)
  for _ = 1 to 32 do
    ignore (Workload.Pcnet_driver.transmit d [ payload ]);
    ignore (Workload.Pcnet_driver.receive d ack);
    ignore (Workload.Pcnet_driver.rx_frame d)
  done;
  timed m (fun () ->
      match kind with
      | Tcp_up ->
        for i = 1 to frames do
          ignore (Workload.Pcnet_driver.transmit d [ payload ]);
          if i mod 8 = 0 then begin
            ignore (Workload.Pcnet_driver.receive d ack);
            ignore (Workload.Pcnet_driver.rx_frame d)
          end
        done
      | Tcp_down ->
        for i = 1 to frames do
          ignore (Workload.Pcnet_driver.receive d payload);
          ignore (Workload.Pcnet_driver.rx_frame d);
          if i mod 8 = 0 then ignore (Workload.Pcnet_driver.transmit d [ ack ])
        done
      | Udp_up ->
        for _ = 1 to frames do
          ignore (Workload.Pcnet_driver.transmit d [ payload ])
        done
      | Udp_down ->
        for _ = 1 to frames do
          ignore (Workload.Pcnet_driver.receive d payload);
          ignore (Workload.Pcnet_driver.rx_frame d)
        done)

let net_sides ~total_bytes kind =
  sides "pcnet" (fun m -> net_run m kind ~total_bytes)

let pcnet_bandwidth ?(total_bytes = 2 * 1024 * 1024) kind =
  let base, prot = net_sides ~total_bytes kind in
  let bytes = float_of_int (max 1 (total_bytes / mtu_payload) * mtu_payload) in
  let mbps side = bytes /. seconds ~exit_us side /. 1.0e6 in
  let base_mbps = mbps base and protected_mbps = mbps prot in
  {
    kind;
    base_mbps;
    protected_mbps;
    overhead_pct = 100.0 *. (1.0 -. (protected_mbps /. base_mbps));
  }

let ping_once d =
  ignore (Workload.Pcnet_driver.transmit d [ Bytes.make 64 'q' ]);
  ignore (Workload.Pcnet_driver.receive d (Bytes.make 64 'r'));
  ignore (Workload.Pcnet_driver.rx_frame d)

let ping_run m ~count =
  let d = Workload.Pcnet_driver.create m in
  ignore (Workload.Pcnet_driver.reset d);
  ignore (Workload.Pcnet_driver.init d ~mode:0 ());
  ignore (Workload.Pcnet_driver.start d);
  for _ = 1 to 32 do
    ping_once d
  done;
  timed m (fun () ->
      for _ = 1 to count do
        ping_once d
      done)

let pcnet_ping ?(count = 400) () =
  let base, prot = sides "pcnet" (fun m -> ping_run m ~count) in
  let ms side = seconds ~exit_us side /. float_of_int count *. 1000.0 in
  let base = ms base and prot = ms prot in
  (base, prot, (prot -. base) /. base)
