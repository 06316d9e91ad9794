module Prng = Sedspec_util.Prng

type interaction_mode = Sequential | Random | Random_delay

let mode_to_string = function
  | Sequential -> "sequential"
  | Random -> "random"
  | Random_delay -> "random+delay"

module type DEVICE_WORKLOAD = sig
  val device_name : string
  val paper_version : Devices.Qemu_version.t
  val device : Devices.Qemu_version.t -> Devices.Device.t
  val make_machine : Devices.Qemu_version.t -> Vmm.Machine.t
  val trainer : cases:int -> Sedspec.Pipeline.trainer

  val soak_case :
    mode:interaction_mode ->
    rng:Prng.t ->
    rare_prob:float ->
    ops:int ->
    Vmm.Machine.t ->
    unit

  val ops_per_hour : interaction_mode -> int
end

let make_machine_for (device : Devices.Qemu_version.t -> Devices.Device.t)
    version =
  let m = Vmm.Machine.create () in
  let dev = device version in
  Vmm.Machine.attach m (dev.Devices.Device.make_binding ());
  m

(* Pick the k-th element for sequential mode, a random one otherwise. *)
let pick_op ~mode ~rng k ops =
  match mode with
  | Sequential -> ops.(k mod Array.length ops)
  | Random | Random_delay -> Prng.pick rng ops

module Fdc_w = struct
  let device_name = Devices.Fdc.name
  let paper_version = Devices.Qemu_version.v 2 3 0

  let device version = Devices.Fdc.device ~version

  let make_machine = make_machine_for device

  let seek_read_write d ~track ~head ~sect =
    ignore (Fdc_driver.seek d ~drive:0 ~head ~track);
    ignore (Fdc_driver.sense_interrupt d);
    (match Fdc_driver.read_sector d ~drive:0 ~head ~track ~sect with
    | Some _ -> ()
    | None -> ());
    let data = Bytes.make 512 (Char.chr ((track + sect) land 0xFF)) in
    ignore (Fdc_driver.write_sector d ~drive:0 ~head ~track ~sect:(sect + 1) data)

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let d = Fdc_driver.create m in
          ignore (Fdc_driver.reset d);
          ignore (Fdc_driver.specify d ~srt:(0xA0 + (case mod 8)) ~hut:(case mod 16));
          ignore (Fdc_driver.configure d (0x40 + (case mod 16)));
          ignore (Fdc_driver.recalibrate d ~drive:(case mod 2));
          ignore (Fdc_driver.sense_interrupt d);
          ignore (Fdc_driver.read_id d ~drive:(case mod 2));
          (* Drivers commonly probe the controller version at init. *)
          ignore (Fdc_driver.version d);
          for i = 0 to 5 do
            let track = ((case * 7) + (i * 3)) mod 80 in
            seek_read_write d ~track ~head:(i mod 2) ~sect:(1 + (i mod 9))
          done;
          ignore (Fdc_driver.msr d))
    }

  let rare_op rng d =
    match Prng.int rng 3 with
    | 0 -> ignore (Fdc_driver.dumpreg d)
    | 1 -> ignore (Fdc_driver.perpendicular d (Prng.int rng 256))
    | _ -> ignore (Fdc_driver.invalid_command d)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Fdc_driver.create m in
    ignore (Fdc_driver.reset d);
    ignore (Fdc_driver.recalibrate d ~drive:0);
    ignore (Fdc_driver.sense_interrupt d);
    let actions =
      [|
        (fun () ->
          let track = Prng.int rng 80 and head = Prng.int rng 2 in
          ignore (Fdc_driver.seek d ~drive:0 ~head ~track);
          ignore (Fdc_driver.sense_interrupt d);
          ignore
            (Fdc_driver.read_sector d ~drive:0 ~head ~track
               ~sect:(1 + Prng.int rng 18)));
        (fun () ->
          let track = Prng.int rng 80 and head = Prng.int rng 2 in
          let data = Bytes.make 512 (Char.chr (Prng.int rng 256)) in
          ignore (Fdc_driver.seek d ~drive:0 ~head ~track);
          ignore (Fdc_driver.sense_interrupt d);
          ignore
            (Fdc_driver.write_sector d ~drive:0 ~head ~track
               ~sect:(1 + Prng.int rng 18) data));
        (fun () -> ignore (Fdc_driver.read_id d ~drive:0));
        (fun () -> ignore (Fdc_driver.msr d));
        (fun () ->
          ignore (Fdc_driver.specify d ~srt:(Prng.int rng 256) ~hut:(Prng.int rng 16)));
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 3000
    | Random -> 2600
    | Random_delay -> 1500
end

module Ehci_w = struct
  let device_name = Devices.Ehci.name
  let paper_version = Devices.Qemu_version.v 5 1 0

  let device version = Devices.Ehci.device ~version

  let make_machine = make_machine_for device

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let d = Ehci_driver.create m in
          ignore (Ehci_driver.reset_port d);
          ignore (Ehci_driver.set_address d (1 + (case mod 16)));
          ignore (Ehci_driver.get_descriptor d ~dtype:1 ~length:18);
          ignore (Ehci_driver.get_descriptor d ~dtype:1 ~length:8);
          ignore (Ehci_driver.get_descriptor d ~dtype:2 ~length:32);
          ignore (Ehci_driver.get_descriptor d ~dtype:2 ~length:9);
          ignore (Ehci_driver.get_descriptor d ~dtype:3 ~length:16);
          ignore (Ehci_driver.set_configuration d 1);
          ignore (Ehci_driver.get_status d);
          ignore (Ehci_driver.control_out d (Bytes.make (8 + (case mod 56)) 'x'));
          ignore (Ehci_driver.usbsts d);
          ignore (Ehci_driver.frindex d))
    }

  let rare_op rng d =
    (* CLEAR_FEATURE is a legitimate request no training sample issued. *)
    ignore
      (Ehci_driver.control_setup d ~bm:0x00 ~req:1 ~value:(Prng.int rng 2)
         ~index:0 ~length:0);
    ignore (Ehci_driver.submit d ~pid:Devices.Ehci.pid_in ~len:0 ~buf:0x6000L)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Ehci_driver.create m in
    ignore (Ehci_driver.reset_port d);
    ignore (Ehci_driver.set_address d (1 + Prng.int rng 100));
    let actions =
      [|
        (fun () -> ignore (Ehci_driver.get_descriptor d ~dtype:1 ~length:(8 + Prng.int rng 11)));
        (fun () -> ignore (Ehci_driver.get_descriptor d ~dtype:2 ~length:(4 + Prng.int rng 29)));
        (fun () -> ignore (Ehci_driver.get_descriptor d ~dtype:3 ~length:(2 + Prng.int rng 15)));
        (fun () -> ignore (Ehci_driver.set_configuration d (Prng.int rng 3)));
        (fun () -> ignore (Ehci_driver.get_status d));
        (fun () -> ignore (Ehci_driver.control_out d (Bytes.make (1 + Prng.int rng 64) 'y')));
        (fun () -> ignore (Ehci_driver.usbsts d));
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 8000
    | Random -> 7000
    | Random_delay -> 4000
end

module Pcnet_w = struct
  let device_name = Devices.Pcnet.name
  let paper_version = Devices.Qemu_version.v 2 4 0

  let device version = Devices.Pcnet.device ~version

  let make_machine = make_machine_for device

  let frame rng len = Prng.bytes rng len

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let rng = Prng.create (Int64.of_int (7919 * (case + 1))) in
          let d = Pcnet_driver.create ~rcvrl:(4 + (case mod 5)) ~xmtrl:8 m in
          ignore (Pcnet_driver.reset d);
          (* Deliver one frame before RX is enabled: trains the drop path. *)
          ignore (Pcnet_driver.receive d (frame rng 64));
          let loopback = case mod 3 = 0 in
          ignore (Pcnet_driver.init d ~mode:(if loopback then 4 else 0) ());
          ignore (Pcnet_driver.start d);
          ignore (Pcnet_driver.link_up d);
          for i = 0 to 5 do
            let len = 64 + ((case * 97 + i * 211) mod 1454) in
            if i mod 3 = 2 then
              (* Multi-fragment frame (trains the ENP-not-set edge). *)
              ignore
                (Pcnet_driver.transmit d [ frame rng (len / 2); frame rng (len / 2) ])
            else ignore (Pcnet_driver.transmit d [ frame rng len ]);
            if not loopback then begin
              ignore (Pcnet_driver.receive d (frame rng (64 + ((i * 331) mod 1454))));
              ignore (Pcnet_driver.rx_frame d)
            end;
            Pcnet_driver.ack_interrupts d
          done;
          (* Exhaust the RX ring once: trains the ring-wrap / miss edges. *)
          if not loopback then begin
            for _ = 0 to 12 do
              ignore (Pcnet_driver.receive d (frame rng 128))
            done;
            Pcnet_driver.stock_rx_ring d
          end;
          ignore (Pcnet_driver.csr0 d))
    }

  let rare_op rng d =
    match Prng.int rng 2 with
    | 0 -> ignore (Pcnet_driver.read_csr d 88)  (* chip id probe *)
    | _ -> ignore (Pcnet_driver.read_bcr d 20)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Pcnet_driver.create ~rcvrl:8 ~xmtrl:8 m in
    ignore (Pcnet_driver.reset d);
    ignore (Pcnet_driver.init d ~mode:0 ());
    ignore (Pcnet_driver.start d);
    let actions =
      [|
        (fun () ->
          ignore (Pcnet_driver.transmit d [ frame rng (64 + Prng.int rng 1454) ]));
        (fun () ->
          let l = 64 + Prng.int rng 1200 in
          ignore (Pcnet_driver.transmit d [ frame rng (l / 2); frame rng (l / 2) ]));
        (fun () ->
          ignore (Pcnet_driver.receive d (frame rng (64 + Prng.int rng 1454)));
          ignore (Pcnet_driver.rx_frame d));
        (fun () -> ignore (Pcnet_driver.csr0 d));
        (fun () -> ignore (Pcnet_driver.link_up d));
        (fun () -> Pcnet_driver.ack_interrupts d);
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 20000
    | Random -> 18000
    | Random_delay -> 9000
end

module Sdhci_w = struct
  let device_name = Devices.Sdhci.name
  let paper_version = Devices.Qemu_version.v 5 2 0

  let device version = Devices.Sdhci.device ~version

  let make_machine = make_machine_for device

  let dma_area = 0xA0000L

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let d = Sdhci_driver.create m in
          ignore (Sdhci_driver.init_card d);
          let blksize = [| 512; 1024; 2048 |].(case mod 3) in
          ignore (Sdhci_driver.read_block d ~lba:(case * 3) ~blksize);
          let data = Bytes.make blksize (Char.chr (case land 0xFF)) in
          ignore (Sdhci_driver.write_block d ~lba:(case * 5) data);
          ignore
            (Sdhci_driver.read_multi d ~lba:case ~blksize ~blkcnt:(1 + (case mod 6))
               ~dma_addr:dma_area);
          ignore
            (Sdhci_driver.write_multi d ~lba:(case + 7) ~blksize
               ~blkcnt:(1 + (case mod 4)) ~dma_addr:dma_area);
          ignore (Sdhci_driver.send_status d);
          ignore (Sdhci_driver.stop d);
          ignore (Sdhci_driver.clear_ints d);
          ignore (Sdhci_driver.norintsts d))
    }

  let rare_op _rng d =
    (* CMD1 (legacy MMC init) is legitimate but untrained. *)
    ignore (Sdhci_driver.raw_command d ~idx:1 ~arg:0)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Sdhci_driver.create m in
    ignore (Sdhci_driver.init_card d);
    let actions =
      [|
        (fun () ->
          let blksize = [| 512; 1024; 2048 |].(Prng.int rng 3) in
          ignore (Sdhci_driver.read_block d ~lba:(Prng.int rng 4096) ~blksize));
        (fun () ->
          let blksize = [| 512; 1024 |].(Prng.int rng 2) in
          ignore
            (Sdhci_driver.write_block d ~lba:(Prng.int rng 4096)
               (Bytes.make blksize (Char.chr (Prng.int rng 256)))));
        (fun () ->
          ignore
            (Sdhci_driver.read_multi d ~lba:(Prng.int rng 4096)
               ~blksize:[| 512; 2048 |].(Prng.int rng 2)
               ~blkcnt:(1 + Prng.int rng 7) ~dma_addr:dma_area));
        (fun () ->
          ignore
            (Sdhci_driver.write_multi d ~lba:(Prng.int rng 4096) ~blksize:512
               ~blkcnt:(1 + Prng.int rng 7) ~dma_addr:dma_area));
        (fun () -> ignore (Sdhci_driver.send_status d));
        (fun () -> ignore (Sdhci_driver.clear_ints d));
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 6000
    | Random -> 5200
    | Random_delay -> 2800
end

module Scsi_w = struct
  let device_name = Devices.Scsi.name
  let paper_version = Devices.Qemu_version.v 2 4 0

  let device version = Devices.Scsi.device ~version

  let make_machine = make_machine_for device

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let d = Scsi_driver.create m in
          ignore (Scsi_driver.reset d);
          ignore (Scsi_driver.test_unit_ready d);
          ignore (Scsi_driver.inquiry d ~dma:(case mod 2 = 0));
          ignore (Scsi_driver.request_sense d);
          ignore (Scsi_driver.mode_sense d ~pages:(18 + (case mod 3)));
          for i = 0 to 3 do
            ignore (Scsi_driver.read10 d ~lba:((case * 11) + i) ~blocks:(1 + (i mod 2)));
            ignore (Scsi_driver.write10 d ~lba:((case * 13) + i) ~blocks:1)
          done;
          (* Transfers larger than the DMA engine's page chunk. *)
          ignore (Scsi_driver.read10 d ~lba:(case * 17) ~blocks:12);
          ignore (Scsi_driver.write10 d ~lba:(case * 19) ~blocks:10);
          ignore (Scsi_driver.read_intr d))
    }

  let rare_op rng d =
    match Prng.int rng 2 with
    | 0 -> ignore (Scsi_driver.bus_reset d)
    | _ -> ignore (Scsi_driver.nop d)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Scsi_driver.create m in
    ignore (Scsi_driver.reset d);
    let actions =
      [|
        (fun () -> ignore (Scsi_driver.test_unit_ready d));
        (fun () -> ignore (Scsi_driver.inquiry d ~dma:(Prng.bool rng)));
        (fun () ->
          ignore (Scsi_driver.read10 d ~lba:(Prng.int rng 65536) ~blocks:(1 + Prng.int rng 3)));
        (fun () ->
          ignore (Scsi_driver.write10 d ~lba:(Prng.int rng 65536) ~blocks:(1 + Prng.int rng 2)));
        (fun () -> ignore (Scsi_driver.request_sense d));
        (fun () -> ignore (Scsi_driver.read_intr d));
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 5000
    | Random -> 4400
    | Random_delay -> 2400
end

module Virtio_w = struct
  let device_name = Devices.Virtio_ring.name
  let paper_version = Devices.Qemu_version.v 4 0 0

  let device version = Devices.Virtio_ring.device ~version

  let make_machine = make_machine_for device

  let payload rng len = Prng.bytes rng len

  let trainer ~cases =
    {
      Sedspec.Pipeline.cases;
      run_case =
        (fun m case ->
          let rng = Prng.create (Int64.of_int (6947 * (case + 1))) in
          let d = Virtio_driver.create m in
          ignore (Virtio_driver.init d);
          (* Notify with an empty queue: trains the no-work edge. *)
          ignore (Virtio_driver.publish d 0);
          ignore (Virtio_driver.poll_used d);
          for i = 0 to 5 do
            let len = 32 + ((case * 113 + i * 197) mod 480) in
            if i mod 3 = 2 then
              (* Two-descriptor chain (trains the NEXT edge). *)
              ignore
                (Virtio_driver.send d
                   [ payload rng (len / 2); payload rng (len / 2) ])
            else ignore (Virtio_driver.send d [ payload rng len ]);
            ignore (Virtio_driver.poll_used d);
            if i mod 2 = 0 then
              ignore (Virtio_driver.recv d ~len:(16 + ((case * 37 + i) mod 240)));
            ignore (Virtio_driver.poll_used d);
            ignore (Virtio_driver.isr d);
            ignore (Virtio_driver.isr_ack d)
          done;
          ignore (Virtio_driver.status d);
          ignore (Virtio_driver.used_idx_reg d);
          ignore (Virtio_driver.features d);
          ignore (Virtio_driver.qsize_reg d))
    }

  let rare_op _rng d =
    (* Ring-address readback is legitimate but untrained. *)
    ignore (Virtio_driver.avail_addr_reg d)

  let soak_case ~mode ~rng ~rare_prob ~ops m =
    let d = Virtio_driver.create m in
    ignore (Virtio_driver.init d);
    let actions =
      [|
        (fun () ->
          ignore (Virtio_driver.send d [ payload rng (32 + Prng.int rng 480) ]);
          ignore (Virtio_driver.poll_used d));
        (fun () ->
          let l = 64 + Prng.int rng 400 in
          ignore (Virtio_driver.send d [ payload rng (l / 2); payload rng (l / 2) ]);
          ignore (Virtio_driver.poll_used d));
        (fun () ->
          ignore (Virtio_driver.recv d ~len:(16 + Prng.int rng 240));
          ignore (Virtio_driver.poll_used d));
        (fun () -> ignore (Virtio_driver.status d));
        (fun () -> ignore (Virtio_driver.used_idx_reg d));
        (fun () ->
          ignore (Virtio_driver.isr d);
          ignore (Virtio_driver.isr_ack d));
      |]
    in
    for k = 0 to ops - 1 do
      if Prng.chance rng rare_prob then rare_op rng d
      else (pick_op ~mode ~rng k actions) ()
    done

  let ops_per_hour = function
    | Sequential -> 15000
    | Random -> 13000
    | Random_delay -> 7000
end

let all : (module DEVICE_WORKLOAD) list =
  [
    (module Fdc_w);
    (module Ehci_w);
    (module Pcnet_w);
    (module Sdhci_w);
    (module Scsi_w);
    (module Virtio_w);
  ]

let find name =
  List.find
    (fun (module W : DEVICE_WORKLOAD) -> W.device_name = name)
    all

let find_opt name =
  List.find_opt
    (fun (module W : DEVICE_WORKLOAD) -> W.device_name = name)
    all
