(* Functional tests for the five device models: benign lifecycles behave
   like the real hardware programming models, and each CVE's vulnerable
   logic corrupts memory (or hangs) exactly where the patched logic
   stays safe. *)

open Devir

module QV = Devices.Qemu_version

let machine_with (dev : Devices.Device.t) =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (dev.make_binding ());
  m

let arena_of m name = Interp.arena (Vmm.Machine.interp_of m name)

let count_oob m name =
  let interp = Vmm.Machine.interp_of m name in
  let n = ref 0 in
  let (_ : unit -> unit) =
    Interp.add_hooks interp { Interp.silent_hooks with Interp.on_oob = (fun _ -> incr n) }
  in
  n

(* --- FDC -------------------------------------------------------------- *)

let fdc_m version = machine_with (Devices.Fdc.device ~version)

let test_fdc_read_write_lifecycle () =
  let m = fdc_m (QV.v 2 3 0) in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
  (match Workload.Fdc_driver.sense_interrupt d with
  | Some (_, 0) -> ()
  | _ -> Alcotest.fail "recalibrate should leave track 0");
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:1 ~track:33);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  (match Workload.Fdc_driver.read_sector d ~drive:0 ~head:1 ~track:33 ~sect:5 with
  | Some buf ->
    let expect = Workload.Fdc_driver.expected_byte ~track:33 ~head:1 ~sect:5 in
    Bytes.iter (fun ch -> assert (Char.code ch = expect)) buf
  | None -> Alcotest.fail "read failed");
  let data = Bytes.make 512 'Z' in
  Alcotest.(check bool) "write completes" true
    (Workload.Fdc_driver.write_sector d ~drive:0 ~head:1 ~track:33 ~sect:6 data);
  Alcotest.(check int64) "idle after lifecycle" 0L
    (Arena.get (arena_of m "fdc") "phase")

let test_fdc_msr_progression () =
  let m = fdc_m (QV.v 2 3 0) in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  Alcotest.(check int) "RQM after reset" 0x80 (Workload.Fdc_driver.msr d land 0x80);
  (* Mid-command: busy bit set. *)
  ignore (Workload.Io.outb m (Int64.add Devices.Fdc.io_base 5L) 0x0F);
  Alcotest.(check int) "busy during command" 0x10 (Workload.Fdc_driver.msr d land 0x10)

let test_fdc_rare_commands () =
  let m = fdc_m (QV.v 2 3 0) in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  (match Workload.Fdc_driver.version d with
  | Some v -> Alcotest.(check int) "version byte" 0x90 v
  | None -> Alcotest.fail "version failed");
  Alcotest.(check bool) "dumpreg" true (Workload.Fdc_driver.dumpreg d);
  Alcotest.(check bool) "perpendicular" true (Workload.Fdc_driver.perpendicular d 3);
  Alcotest.(check bool) "invalid command gets 0x80 status" true
    (Workload.Fdc_driver.invalid_command d)

let test_fdc_venom_vulnerable_vs_patched () =
  let exploit m =
    let port = Int64.add Devices.Fdc.io_base 5L in
    ignore (Workload.Io.outb m port 0x8E);
    let trapped = ref false in
    (try
       for _ = 1 to 600 do
         match Workload.Io.outb m port 0x01 with
         | Workload.Io.R_fault _ ->
           trapped := true;
           raise Exit
         | _ -> ()
       done
     with Exit -> ());
    !trapped
  in
  Alcotest.(check bool) "2.3.0 crashes" true (exploit (fdc_m (QV.v 2 3 0)));
  Alcotest.(check bool) "2.3.1 immune" false (exploit (fdc_m (QV.v 2 3 1)))

let test_fdc_reset_during_command () =
  let m = fdc_m (QV.v 2 3 0) in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Io.outb m (Int64.add Devices.Fdc.io_base 5L) 0x46);
  ignore (Workload.Fdc_driver.reset d);
  Alcotest.(check int64) "reset clears pos" 0L (Arena.get (arena_of m "fdc") "data_pos");
  Alcotest.(check int64) "reset idles" 0L (Arena.get (arena_of m "fdc") "phase")

(* --- SDHCI ------------------------------------------------------------ *)

let sdhci_m version = machine_with (Devices.Sdhci.device ~version)

let test_sdhci_init_and_block_io () =
  let m = sdhci_m (QV.v 5 2 0) in
  let d = Workload.Sdhci_driver.create m in
  Alcotest.(check bool) "init" true (Workload.Sdhci_driver.init_card d);
  Alcotest.(check int64) "transfer state" 4L
    (Arena.get (arena_of m "sdhci") "card_state");
  (match Workload.Sdhci_driver.read_block d ~lba:9 ~blksize:512 with
  | Some buf ->
    let expect = Workload.Sdhci_driver.expected_byte ~lba:9 in
    Alcotest.(check int) "pattern byte" expect (Char.code (Bytes.get buf 0))
  | None -> Alcotest.fail "read failed");
  Alcotest.(check bool) "write block" true
    (Workload.Sdhci_driver.write_block d ~lba:3 (Bytes.make 512 'q'));
  Alcotest.(check bool) "status" true (Workload.Sdhci_driver.send_status d <> None)

let test_sdhci_multiblock_dma () =
  let m = sdhci_m (QV.v 5 2 0) in
  let d = Workload.Sdhci_driver.create m in
  ignore (Workload.Sdhci_driver.init_card d);
  let dma = 0xA0000L in
  Alcotest.(check bool) "read multi" true
    (Workload.Sdhci_driver.read_multi d ~lba:4 ~blksize:512 ~blkcnt:3 ~dma_addr:dma);
  let expect = Workload.Sdhci_driver.expected_byte ~lba:4 in
  Alcotest.(check int) "dma data landed in guest ram" expect
    (Vmm.Guest_mem.read_byte (Vmm.Machine.ram m) dma);
  Alcotest.(check bool) "write multi" true
    (Workload.Sdhci_driver.write_multi d ~lba:9 ~blksize:512 ~blkcnt:2 ~dma_addr:dma);
  Alcotest.(check bool) "xfer-complete interrupt" true
    (Workload.Sdhci_driver.norintsts d land 0x0002 <> 0)

let sdhci_exploit m =
  let d = Workload.Sdhci_driver.create m in
  ignore (Workload.Sdhci_driver.init_card d);
  ignore (Workload.Sdhci_driver.set_blksize d 0x200);
  ignore (Workload.Sdhci_driver.raw_command d ~idx:24 ~arg:1);
  let bdata v =
    Workload.Io.mmio_w32 m
      (Int64.add Devices.Sdhci.mmio_base 0x20L)
      (Int64.of_int v)
  in
  for _ = 1 to 0x80 do
    ignore (bdata 0x55)
  done;
  ignore (Workload.Sdhci_driver.set_blksize d 0x40);
  let trapped = ref false in
  (try
     for _ = 1 to 8192 do
       match bdata 0x66 with
       | Workload.Io.R_fault _ ->
         trapped := true;
         raise Exit
       | _ -> ()
     done
   with Exit -> ());
  !trapped

let test_sdhci_3409_vulnerable_vs_patched () =
  Alcotest.(check bool) "5.2.0 runs away" true (sdhci_exploit (sdhci_m (QV.v 5 2 0)));
  Alcotest.(check bool) "6.0.0 immune" false (sdhci_exploit (sdhci_m (QV.v 6 0 0)))

(* --- PCNet ------------------------------------------------------------ *)

let pcnet_m version = machine_with (Devices.Pcnet.device ~version)

let pcnet_up ?(mode = 0) m =
  let d = Workload.Pcnet_driver.create m in
  ignore (Workload.Pcnet_driver.reset d);
  ignore (Workload.Pcnet_driver.init d ~mode ());
  ignore (Workload.Pcnet_driver.start d);
  d

let test_pcnet_init_from_init_block () =
  let m = pcnet_m (QV.v 2 4 0) in
  let d = pcnet_up m in
  ignore d;
  let a = arena_of m "pcnet" in
  Alcotest.(check int64) "rdra" 0x2000L (Arena.get a "rdra");
  Alcotest.(check int64) "tdra" 0x3000L (Arena.get a "tdra");
  Alcotest.(check int64) "rcvrl" 8L (Arena.get a "rcvrl");
  Alcotest.(check bool) "rx/tx on" true
    (Int64.to_int (Arena.get a "csr0") land 0x30 = 0x30)

let test_pcnet_transmit_and_receive () =
  let m = pcnet_m (QV.v 2 4 0) in
  let d = pcnet_up m in
  Alcotest.(check bool) "tx" true (Workload.Pcnet_driver.transmit d [ Bytes.make 100 'x' ]);
  Alcotest.(check bool) "tint" true (Workload.Pcnet_driver.csr0 d land 0x200 <> 0);
  let frame = Bytes.init 96 (fun i -> Char.chr (i land 0xFF)) in
  (match Workload.Pcnet_driver.receive d frame with
  | Workload.Io.R_ok _ -> ()
  | _ -> Alcotest.fail "receive failed");
  match Workload.Pcnet_driver.rx_frame d with
  | Some (len, data) ->
    Alcotest.(check int) "length written back" 96 len;
    Alcotest.(check char) "payload delivered" (Char.chr 5) (Bytes.get data 5)
  | None -> Alcotest.fail "no frame delivered"

let test_pcnet_rx_ring_wrap_and_miss () =
  let m = pcnet_m (QV.v 2 4 0) in
  let d = pcnet_up m in
  (* Fill the whole ring without reaping: the final injects must MISS. *)
  for _ = 1 to 10 do
    ignore (Workload.Pcnet_driver.receive d (Bytes.make 64 'y'))
  done;
  Alcotest.(check bool) "miss flagged" true
    (Workload.Pcnet_driver.csr0 d land 0x1000 <> 0);
  (* Reap everything; ring indices wrapped consistently. *)
  let reaped = ref 0 in
  let rec go () =
    match Workload.Pcnet_driver.rx_frame d with
    | Some _ ->
      incr reaped;
      go ()
    | None -> ()
  in
  go ();
  Alcotest.(check int) "ring capacity delivered" 8 !reaped

let test_pcnet_loopback_crc_in_bounds () =
  let m = pcnet_m (QV.v 2 4 0) in
  let d = pcnet_up ~mode:4 m in
  let oob = count_oob m "pcnet" in
  Alcotest.(check bool) "small loopback tx" true
    (Workload.Pcnet_driver.transmit d [ Bytes.make 256 'l' ]);
  Alcotest.(check int) "no oob for small frames" 0 !oob;
  Alcotest.(check int64) "irq intact" Devices.Pcnet.irq_cb
    (Arena.get (arena_of m "pcnet") "irq")

let test_pcnet_7504_vulnerable_vs_patched () =
  let exploit m =
    let d = pcnet_up ~mode:4 m in
    ignore (Workload.Pcnet_driver.transmit d [ Bytes.make 4096 '\xCC' ]);
    Arena.get (arena_of m "pcnet") "irq" <> Devices.Pcnet.irq_cb
  in
  Alcotest.(check bool) "2.4.0 corrupts irq" true (exploit (pcnet_m (QV.v 2 4 0)));
  Alcotest.(check bool) "2.5.0 immune" false (exploit (pcnet_m (QV.v 2 5 0)))

let test_pcnet_7512_vulnerable_vs_patched () =
  let exploit m =
    let d = pcnet_up m in
    let oob = count_oob m "pcnet" in
    ignore
      (Workload.Pcnet_driver.transmit d
         [ Bytes.make 1518 'a'; Bytes.make 1518 'b'; Bytes.make 1518 'c' ]);
    !oob > 0
  in
  Alcotest.(check bool) "2.4.0 overflows" true (exploit (pcnet_m (QV.v 2 4 0)));
  Alcotest.(check bool) "2.5.0 immune" false (exploit (pcnet_m (QV.v 2 5 0)))

let test_pcnet_7909_vulnerable_vs_patched () =
  let exploit m =
    let d = pcnet_up m in
    let g = Vmm.Machine.ram m in
    for i = 0 to 7 do
      Vmm.Guest_mem.write g
        (Int64.add 0x2000L (Int64.of_int ((i * 16) + 4)))
        Width.W32 0L
    done;
    ignore (Workload.Pcnet_driver.write_csr d 76 0);
    match Workload.Pcnet_driver.receive d (Bytes.make 64 'z') with
    | Workload.Io.R_fault Interp.Event.Step_limit -> true
    | _ -> false
  in
  Alcotest.(check bool) "2.6.0 hangs" true (exploit (pcnet_m (QV.v 2 6 0)));
  Alcotest.(check bool) "2.7.1 immune" false (exploit (pcnet_m (QV.v 2 7 1)))

let test_pcnet_link_status_host_value () =
  let m = pcnet_m (QV.v 2 4 0) in
  let d = pcnet_up m in
  Alcotest.(check bool) "link down by default" false (Workload.Pcnet_driver.link_up d);
  Interp.set_host_values (Vmm.Machine.interp_of m "pcnet") (fun _ -> 1L);
  Alcotest.(check bool) "link up from host value" true (Workload.Pcnet_driver.link_up d)

(* --- EHCI -------------------------------------------------------------- *)

let ehci_m version = machine_with (Devices.Ehci.device ~version)

let test_ehci_control_transfers () =
  let m = ehci_m (QV.v 5 1 0) in
  let d = Workload.Ehci_driver.create m in
  ignore (Workload.Ehci_driver.reset_port d);
  Alcotest.(check bool) "set_address" true (Workload.Ehci_driver.set_address d 9);
  Alcotest.(check int64) "address latched" 9L (Arena.get (arena_of m "ehci") "dev_addr");
  (match Workload.Ehci_driver.get_descriptor d ~dtype:1 ~length:18 with
  | Some buf ->
    Alcotest.(check int) "device descriptor pattern" (0x12 + 9)
      (Char.code (Bytes.get buf 0))
  | None -> Alcotest.fail "get_descriptor failed");
  Alcotest.(check bool) "set_configuration" true (Workload.Ehci_driver.set_configuration d 1);
  (match Workload.Ehci_driver.get_status d with
  | Some st -> Alcotest.(check int) "self-powered bit" 1 (Char.code (Bytes.get st 0))
  | None -> Alcotest.fail "get_status failed");
  Alcotest.(check bool) "OUT data stage" true
    (Workload.Ehci_driver.control_out d (Bytes.make 32 'o'));
  Alcotest.(check bool) "usbsts has interrupt bit" true
    (Int64.to_int (Workload.Ehci_driver.usbsts d) land 1 <> 0)

let test_ehci_frindex_advances () =
  let m = ehci_m (QV.v 5 1 0) in
  let d = Workload.Ehci_driver.create m in
  ignore (Workload.Ehci_driver.reset_port d);
  let f0 = Workload.Ehci_driver.frindex d in
  ignore (Workload.Ehci_driver.set_address d 1);
  Alcotest.(check bool) "frindex advanced" true (Workload.Ehci_driver.frindex d > f0)

let ehci_exploit m =
  let d = Workload.Ehci_driver.create m in
  ignore (Workload.Ehci_driver.reset_port d);
  let len = Devices.Ehci.data_buf_size + 80 in
  ignore (Workload.Ehci_driver.control_setup d ~bm:0 ~req:9 ~value:1 ~index:0 ~length:len);
  Vmm.Guest_mem.blit_in (Vmm.Machine.ram m) 0x6000L (Bytes.make len '\x41');
  ignore (Workload.Ehci_driver.submit d ~pid:Devices.Ehci.pid_out ~len ~buf:0x6000L);
  Arena.get (arena_of m "ehci") "irq" <> Devices.Ehci.irq_cb

let test_ehci_14364_vulnerable_vs_patched () =
  Alcotest.(check bool) "5.1.0 corrupts irq" true (ehci_exploit (ehci_m (QV.v 5 1 0)));
  Alcotest.(check bool) "5.1.1 immune (stalls)" false (ehci_exploit (ehci_m (QV.v 5 1 1)))

(* --- SCSI -------------------------------------------------------------- *)

let scsi_m version = machine_with (Devices.Scsi.device ~version)

let test_scsi_command_lifecycle () =
  let m = scsi_m (QV.v 2 4 0) in
  let d = Workload.Scsi_driver.create m in
  ignore (Workload.Scsi_driver.reset d);
  Alcotest.(check bool) "TUR" true (Workload.Scsi_driver.test_unit_ready d);
  Alcotest.(check bool) "inquiry via fifo" true (Workload.Scsi_driver.inquiry d ~dma:false);
  Alcotest.(check bool) "inquiry via dma" true (Workload.Scsi_driver.inquiry d ~dma:true);
  Alcotest.(check bool) "read10" true (Workload.Scsi_driver.read10 d ~lba:100 ~blocks:2);
  (* Disk data pattern lands in the DMA area. *)
  let b0 = Vmm.Guest_mem.read_byte (Vmm.Machine.ram m) Workload.Scsi_driver.dma_data in
  Alcotest.(check int) "disk pattern" ((100 * 17 + 0x40) land 0xFF) b0;
  Alcotest.(check bool) "write10" true (Workload.Scsi_driver.write10 d ~lba:4 ~blocks:1);
  Alcotest.(check bool) "request sense" true (Workload.Scsi_driver.request_sense d);
  Alcotest.(check int64) "request completed" 0L
    (Arena.get (arena_of m "scsi") "req_active")

let test_scsi_large_transfer () =
  let m = scsi_m (QV.v 2 4 0) in
  let d = Workload.Scsi_driver.create m in
  ignore (Workload.Scsi_driver.reset d);
  Alcotest.(check bool) "16-block read (8 KiB)" true
    (Workload.Scsi_driver.read10 d ~lba:7 ~blocks:16)

let test_scsi_5158_vulnerable_vs_patched () =
  (* CVE-2016-4439 is still open at 2.4.1 (the select copy itself
     overflows by 4 bytes), so discriminate on 5158's own effect: the cdb
     parse overflowing into disk_len. *)
  let exploit m =
    let d = Workload.Scsi_driver.create m in
    ignore (Workload.Scsi_driver.reset d);
    let g = Vmm.Machine.ram m in
    Vmm.Guest_mem.write g 0x7000L Width.W32 20L;
    Vmm.Guest_mem.write_byte g 0x7004L 0x80;
    Vmm.Guest_mem.write_byte g 0x7005L 0xE3;
    for i = 2 to 19 do
      Vmm.Guest_mem.write_byte g (Int64.add 0x7004L (Int64.of_int i)) 0xFF
    done;
    ignore (Workload.Io.mmio_w32 m (Int64.add Devices.Scsi.mmio_base 8L) 0x7000L);
    ignore (Workload.Io.mmio_w32 m (Int64.add Devices.Scsi.mmio_base 3L) 0xC1L);
    (* The spilled bytes include live neighbour values, so just check the
       length became impossible (the defensive-branch trigger). *)
    Int64.unsigned_compare (Arena.get (arena_of m "scsi") "disk_len") 0x100000L > 0
  in
  Alcotest.(check bool) "2.4.0 corrupts disk_len via cdb" true
    (exploit (scsi_m (QV.v 2 4 0)));
  Alcotest.(check bool) "2.4.1 immune" false (exploit (scsi_m (QV.v 2 4 1)))

let test_scsi_4439_vulnerable_vs_patched () =
  let exploit m =
    let d = Workload.Scsi_driver.create m in
    ignore (Workload.Scsi_driver.reset d);
    let g = Vmm.Machine.ram m in
    Vmm.Guest_mem.write g 0x7000L Width.W32 32L;
    Vmm.Guest_mem.write_byte g 0x7004L 0x80;
    Vmm.Guest_mem.write_byte g 0x7005L 0x00;
    for i = 2 to 31 do
      Vmm.Guest_mem.write_byte g (Int64.add 0x7004L (Int64.of_int i)) 0xFF
    done;
    ignore (Workload.Io.mmio_w32 m (Int64.add Devices.Scsi.mmio_base 8L) 0x7000L);
    ignore (Workload.Io.mmio_w32 m (Int64.add Devices.Scsi.mmio_base 3L) 0xC1L);
    (* ti_size sits right behind cmdbuf. *)
    Arena.get (arena_of m "scsi") "ti_size" = 0xFFFFL
  in
  Alcotest.(check bool) "2.6.0 corrupts ti_size" true (exploit (scsi_m (QV.v 2 6 0)));
  Alcotest.(check bool) "2.6.1 immune" false (exploit (scsi_m (QV.v 2 6 1)))

let test_scsi_1568_analog () =
  let replay m =
    let d = Workload.Scsi_driver.create m in
    ignore (Workload.Scsi_driver.reset d);
    ignore (Workload.Scsi_driver.test_unit_ready d);
    (* Request done; replay the completion. *)
    ignore (Workload.Scsi_driver.iccs d);
    Int64.to_int (Arena.get (arena_of m "scsi") "completions")
  in
  Alcotest.(check int) "2.4.0 double completion" 2 (replay (scsi_m (QV.v 2 4 0)));
  Alcotest.(check int) "2.5.1 single completion" 1 (replay (scsi_m (QV.v 2 5 1)))

(* --- Cross-device properties ------------------------------------------- *)

let prop_benign_traffic_is_safe =
  QCheck.Test.make
    ~name:"benign soak traffic never traps or corrupts (all devices)" ~count:8
    QCheck.int64
    (fun seed ->
      List.for_all
        (fun w ->
          let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
          let m = W.make_machine W.paper_version in
          let oob = count_oob m W.device_name in
          let rng = Sedspec_util.Prng.create seed in
          W.soak_case ~mode:Workload.Samples.Random ~rng ~rare_prob:0.1 ~ops:8 m;
          if !oob > 0 then
            QCheck.Test.fail_reportf "%s: %d OOB accesses on benign traffic"
              W.device_name !oob;
          match Vmm.Machine.last_traps m with
          | [] -> true
          | (_, t) :: _ ->
            QCheck.Test.fail_reportf "%s: benign trap %s" W.device_name
              (Interp.Event.trap_to_string t))
        Workload.Samples.all)

let prop_trainers_are_safe =
  QCheck.Test.make ~name:"trainer corpora never trap or corrupt" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun w ->
          let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
          let m = W.make_machine W.paper_version in
          let oob = count_oob m W.device_name in
          let trainer = W.trainer ~cases:12 in
          for case = 0 to 11 do
            trainer.Sedspec.Pipeline.run_case m case
          done;
          !oob = 0 && Vmm.Machine.last_traps m = [])
        Workload.Samples.all)

let test_patched_devices_survive_all_attacks () =
  (* Every attack against the fully patched device build: no corruption,
     no crash, no hang. *)
  List.iter
    (fun (a : Attacks.Attack.t) ->
      let w = Workload.Samples.find a.device in
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let m = W.make_machine Devices.Qemu_version.latest in
      let oob = count_oob m a.device in
      a.setup m;
      (try a.run m with Exit -> ());
      Alcotest.(check int) (a.cve ^ " no oob on latest") 0 !oob;
      Alcotest.(check (list reject)) (a.cve ^ " no traps on latest") []
        (List.map (fun _ -> ()) (Vmm.Machine.last_traps m));
      Alcotest.(check (list string)) (a.cve ^ " no residual effect") []
        (a.ground_check m))
    Attacks.Attack.all

let test_irq_counts_on_benign_work () =
  (* Interrupts keep flowing for every device under benign load. *)
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let m = W.make_machine W.paper_version in
      let rng = Sedspec_util.Prng.create 21L in
      W.soak_case ~mode:Workload.Samples.Sequential ~rng ~rare_prob:0.0 ~ops:6 m;
      Alcotest.(check bool) (W.device_name ^ " raised interrupts") true
        (Vmm.Irq.raise_count (Vmm.Machine.irq m) W.device_name > 0))
    Workload.Samples.all

let () =
  Alcotest.run "devices"
    [
      ( "fdc",
        [
          Alcotest.test_case "read/write lifecycle" `Quick test_fdc_read_write_lifecycle;
          Alcotest.test_case "msr progression" `Quick test_fdc_msr_progression;
          Alcotest.test_case "rare commands" `Quick test_fdc_rare_commands;
          Alcotest.test_case "venom: vulnerable vs patched" `Quick
            test_fdc_venom_vulnerable_vs_patched;
          Alcotest.test_case "reset during command" `Quick test_fdc_reset_during_command;
        ] );
      ( "sdhci",
        [
          Alcotest.test_case "init and block io" `Quick test_sdhci_init_and_block_io;
          Alcotest.test_case "multi-block dma" `Quick test_sdhci_multiblock_dma;
          Alcotest.test_case "CVE-2021-3409: vulnerable vs patched" `Quick
            test_sdhci_3409_vulnerable_vs_patched;
        ] );
      ( "pcnet",
        [
          Alcotest.test_case "init block" `Quick test_pcnet_init_from_init_block;
          Alcotest.test_case "transmit and receive" `Quick test_pcnet_transmit_and_receive;
          Alcotest.test_case "ring wrap and miss" `Quick test_pcnet_rx_ring_wrap_and_miss;
          Alcotest.test_case "loopback crc in bounds" `Quick test_pcnet_loopback_crc_in_bounds;
          Alcotest.test_case "CVE-2015-7504: vulnerable vs patched" `Quick
            test_pcnet_7504_vulnerable_vs_patched;
          Alcotest.test_case "CVE-2015-7512: vulnerable vs patched" `Quick
            test_pcnet_7512_vulnerable_vs_patched;
          Alcotest.test_case "CVE-2016-7909: vulnerable vs patched" `Quick
            test_pcnet_7909_vulnerable_vs_patched;
          Alcotest.test_case "link status is a host value" `Quick
            test_pcnet_link_status_host_value;
        ] );
      ( "ehci",
        [
          Alcotest.test_case "control transfers" `Quick test_ehci_control_transfers;
          Alcotest.test_case "frindex advances" `Quick test_ehci_frindex_advances;
          Alcotest.test_case "CVE-2020-14364: vulnerable vs patched" `Quick
            test_ehci_14364_vulnerable_vs_patched;
        ] );
      ( "cross-device",
        [
          QCheck_alcotest.to_alcotest prop_benign_traffic_is_safe;
          QCheck_alcotest.to_alcotest prop_trainers_are_safe;
          Alcotest.test_case "patched devices survive all attacks" `Quick
            test_patched_devices_survive_all_attacks;
          Alcotest.test_case "interrupts flow under load" `Quick
            test_irq_counts_on_benign_work;
        ] );
      ( "scsi",
        [
          Alcotest.test_case "command lifecycle" `Quick test_scsi_command_lifecycle;
          Alcotest.test_case "large transfer" `Quick test_scsi_large_transfer;
          Alcotest.test_case "CVE-2015-5158: vulnerable vs patched" `Quick
            test_scsi_5158_vulnerable_vs_patched;
          Alcotest.test_case "CVE-2016-4439: vulnerable vs patched" `Quick
            test_scsi_4439_vulnerable_vs_patched;
          Alcotest.test_case "CVE-2016-1568 analog (double completion)" `Quick
            test_scsi_1568_analog;
        ] );
    ]
