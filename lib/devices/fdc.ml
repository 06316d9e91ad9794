open Devir
open Devir.Dsl

let name = "fdc"
let io_base = 0x3F0L
let irq_cb = 0x0050_0000L
let fifo_size = 512
let venom_fixed_in = Qemu_version.v 2 3 1

(* Main status register bits. *)
let msr_rqm = 0x80
let msr_dio = 0x40
let msr_ndma = 0x20
let msr_cb = 0x10

(* Field widths follow QEMU's FDCtrl; [fifo] is deliberately the last field
   so a Venom overflow escapes the control structure (the heap corruption /
   crash of the real exploit). *)
let layout =
  Layout.make
    [
      Layout.reg ~hw:true ~init:(Int64.of_int msr_rqm) "msr" Width.W8;
      Layout.reg ~hw:true "dor" Width.W8;
      Layout.reg ~hw:true "tdr" Width.W8;
      Layout.reg ~hw:true "dsr" Width.W8;
      Layout.reg ~hw:true "dir_reg" Width.W8;
      Layout.reg "cur_drv" Width.W8;
      Layout.reg "track" Width.W8;
      Layout.reg "head" Width.W8;
      Layout.reg "sect" Width.W8;
      Layout.reg "st0" Width.W8;
      Layout.reg "st1" Width.W8;
      Layout.reg "st2" Width.W8;
      Layout.reg "phase" Width.W8;
      Layout.reg "data_dir" Width.W8;
      Layout.reg "cmd" Width.W8;
      Layout.reg "config" Width.W8;
      Layout.reg "precomp" Width.W8;
      Layout.reg "perp" Width.W8;
      Layout.reg "data_pos" Width.W32;
      Layout.reg "data_len" Width.W32;
      Layout.reg "wr_sum" Width.W32;
      Layout.fn_ptr ~init:irq_cb "irq";
      Layout.buf "fifo" fifo_size;
    ]

(* Sector content served for READ: a deterministic function of the CHS
   address, so tests can verify data integrity end to end. *)
let sector_pattern =
  band Width.W32
    ((fld "track" *% c 7) +% ((fld "sect" *% c 13) +% (fld "head" *% c 3)))
    (c 0xFF)

(* Stage st0/st1/st2/C/H/S/2 into the FIFO and enter the result phase. *)
let stage_result7_stmts =
  [
    setb "fifo" (c 0) (fld "st0");
    setb "fifo" (c 1) (fld "st1");
    setb "fifo" (c 2) (fld "st2");
    setb "fifo" (c 3) (fld "track");
    setb "fifo" (c 4) (fld "head");
    setb "fifo" (c 5) (fld "sect");
    setb "fifo" (c 6) (c 2);
    set "phase" (c ~w:Width.W8 2);
    set "data_pos" (c 0);
    set "data_len" (c 7);
    set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
  ]

let end_idle_stmts =
  [
    set "phase" (c ~w:Width.W8 0);
    set "data_pos" (c 0);
    set "data_len" (c 0);
    set "msr" (c ~w:Width.W8 msr_rqm);
  ]

let write_handler ~vulnerable =
  let ds_check_blocks =
    if vulnerable then
      (* CVE-2015-3456: termination only on a high-bit byte; data_pos is
         never bounded. *)
      [
        blk "w_ds_chk" []
          (br ((prm "data" &% c 0x80) <>% c 0) "ex_drivespec" "w_exit");
      ]
    else
      [
        blk "w_ds_chk" []
          (br ((prm "data" &% c 0x80) <>% c 0) "ex_drivespec" "w_ds_bound");
        blk "w_ds_bound" []
          (br (fld "data_pos" >=% fld "data_len") "ex_drivespec" "w_exit");
      ]
  in
  handler "write"
    ~params:[ "addr"; "offset"; "size"; "data" ]
    ([
       entry "w_entry" []
         (switch (prm "offset")
            [ (2, "w_dor"); (3, "w_tdr"); (4, "w_dsr"); (5, "w_fifo"); (7, "w_ccr") ]
            "w_exit");
       blk "w_dor"
         [
           set "dor" (prm "data");
           set "cur_drv" (band Width.W8 (prm "data") (c 3));
         ]
         (br ((prm "data" &% c 0x04) ==% c 0) "w_reset" "w_exit");
       blk "w_reset"
         (end_idle_stmts @ [ set "st0" (c ~w:Width.W8 0xC0) ])
         (icall (fld "irq") "w_exit");
       blk "w_tdr" [ set "tdr" (prm "data") ] (goto "w_exit");
       blk "w_ccr" [ set "dsr" (band Width.W8 (prm "data") (c 3)) ] (goto "w_exit");
       blk "w_dsr" [ set "dsr" (prm "data") ]
         (br ((prm "data" &% c 0x80) <>% c 0) "w_reset" "w_exit");
       blk "w_fifo" []
         (br ((fld "msr" &% c msr_rqm) ==% c 0) "w_exit" "w_fifo_rdy");
       blk "w_fifo_rdy" [] (br (fld "phase" ==% c 0) "w_cmd_phase" "w_exec_chk");
       blk "w_exec_chk" [] (br (fld "phase" ==% c 1) "w_exec_dir" "w_exit");
       blk "w_exec_dir" [] (br (fld "data_dir" ==% c 0) "w_exec_byte" "w_exit");
       blk "w_exec_byte"
         [
           setb "fifo" (fld "data_pos") (prm "data");
           set "data_pos" (fld "data_pos" +% c 1);
         ]
         (br (fld "data_pos" >=% fld "data_len") "w_commit" "w_exit");
       blk "w_commit"
         ([
            set "wr_sum"
              (bxor Width.W32 (fld "wr_sum")
                 (bufb "fifo" (c 0) +% fld "track"));
            set "st0" (bor Width.W8 (fld "cur_drv") (shl Width.W8 (fld "head") (c 2)));
          ]
         @ stage_result7_stmts)
         (icall (fld "irq") "w_commit_end");
       blk "w_commit_end" [] (goto "w_exit");
       cmd_decision "w_new_cmd"
         [
           set "cmd" (prm "data");
           setb "fifo" (c 0) (prm "data");
           set "data_pos" (c 1);
           set "msr" (c ~w:Width.W8 (msr_rqm lor msr_cb));
         ]
         (switch (fld "cmd")
            [
              (0x03, "su_specify");
              (0x04, "su_sensedrv");
              (0x07, "su_recal");
              (0x08, "ex_senseint");
              (0x0A, "su_readid");
              (0x0E, "ex_dumpreg");
              (0x0F, "su_seek");
              (0x10, "ex_version");
              (0x12, "su_perp");
              (0x13, "su_configure");
              (0x45, "su_write");
              (0xC5, "su_write");
              (0x46, "su_read");
              (0xE6, "su_read");
              (0x8E, "su_drivespec");
            ]
            "ex_invalid");
       blk "w_cmd_phase" [] (br (fld "data_pos" ==% c 0) "w_new_cmd" "w_param");
       blk "su_specify" [ set "data_len" (c 3) ] (goto "w_exit");
       blk "su_sensedrv" [ set "data_len" (c 2) ] (goto "w_exit");
       blk "su_recal" [ set "data_len" (c 2) ] (goto "w_exit");
       blk "su_readid" [ set "data_len" (c 2) ] (goto "w_exit");
       blk "su_seek" [ set "data_len" (c 3) ] (goto "w_exit");
       blk "su_perp" [ set "data_len" (c 2) ] (goto "w_exit");
       blk "su_configure" [ set "data_len" (c 4) ] (goto "w_exit");
       blk "su_write" [ set "data_len" (c 9) ] (goto "w_exit");
       blk "su_read" [ set "data_len" (c 9) ] (goto "w_exit");
       blk "su_drivespec"
         [ set "data_len" (if vulnerable then c 0xFFFFFF else c 6) ]
         (goto "w_exit");
       cmd_end "ex_senseint"
         ([
            setb "fifo" (c 0) (fld "st0");
            setb "fifo" (c 1) (fld "track");
            set "phase" (c ~w:Width.W8 2);
            set "data_pos" (c 0);
            set "data_len" (c 2);
            set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
          ])
         (goto "w_exit");
       cmd_end "ex_version"
         [
           setb "fifo" (c 0) (c 0x90);
           set "phase" (c ~w:Width.W8 2);
           set "data_pos" (c 0);
           set "data_len" (c 1);
           set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
         ]
         (goto "w_exit");
       cmd_end "ex_dumpreg"
         [
           setb "fifo" (c 0) (fld "track");
           setb "fifo" (c 1) (c 0);
           setb "fifo" (c 2) (fld "dsr");
           setb "fifo" (c 3) (fld "tdr");
           setb "fifo" (c 4) (fld "config");
           setb "fifo" (c 5) (fld "precomp");
           setb "fifo" (c 6) (fld "perp");
           setb "fifo" (c 7) (c 0);
           setb "fifo" (c 8) (c 0);
           setb "fifo" (c 9) (c 0);
           set "phase" (c ~w:Width.W8 2);
           set "data_pos" (c 0);
           set "data_len" (c 10);
           set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
         ]
         (goto "w_exit");
       cmd_end "ex_invalid"
         [
           set "st0" (c ~w:Width.W8 0x80);
           setb "fifo" (c 0) (c 0x80);
           set "phase" (c ~w:Width.W8 2);
           set "data_pos" (c 0);
           set "data_len" (c 1);
           set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
         ]
         (goto "w_exit");
       blk "w_param"
         [
           setb "fifo" (fld "data_pos") (prm "data");
           set "data_pos" (fld "data_pos" +% c 1);
         ]
         (br (fld "cmd" ==% c 0x8E) "w_ds_chk" "w_param_chk");
     ]
    @ ds_check_blocks
    @ [
        cmd_end "ex_drivespec"
          ([ set "precomp" (bufb "fifo" (c 1)) ] @ end_idle_stmts)
          (goto "w_exit");
        blk "w_param_chk" []
          (br (fld "data_pos" >=% fld "data_len") "w_dispatch" "w_exit");
        cmd_decision "w_dispatch" []
          (switch (fld "cmd")
             [
               (0x03, "ex_specify");
               (0x04, "ex_sensedrv");
               (0x07, "ex_recal");
               (0x0A, "ex_readid");
               (0x0F, "ex_seek");
               (0x12, "ex_perp");
               (0x13, "ex_configure");
               (0x45, "ex_wsetup");
               (0xC5, "ex_wsetup");
               (0x46, "ex_rsetup");
               (0xE6, "ex_rsetup");
             ]
             "ex_invalid");
        cmd_end "ex_specify"
          ([ set "config" (bufb "fifo" (c 1)); set "precomp" (bufb "fifo" (c 2)) ]
          @ end_idle_stmts)
          (goto "w_exit");
        cmd_end "ex_sensedrv"
          [
            set "cur_drv" (band Width.W8 (bufb "fifo" (c 1)) (c 3));
            setb "fifo" (c 0) (bor Width.W8 (c 0x28) (fld "cur_drv"));
            set "phase" (c ~w:Width.W8 2);
            set "data_pos" (c 0);
            set "data_len" (c 1);
            set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_cb));
          ]
          (goto "w_exit");
        blk "ex_recal"
          ([
             set "cur_drv" (band Width.W8 (bufb "fifo" (c 1)) (c 3));
             set "track" (c ~w:Width.W8 0);
             set "st0" (bor Width.W8 (c 0x20) (fld "cur_drv"));
           ]
          @ end_idle_stmts)
          (icall (fld "irq") "w_recal_end");
        cmd_end "w_recal_end" [] (goto "w_exit");
        blk "ex_seek"
          ([
             set "cur_drv" (band Width.W8 (bufb "fifo" (c 1)) (c 3));
             set "head" (band Width.W8 (shr Width.W8 (bufb "fifo" (c 1)) (c 2)) (c 1));
             set "track" (bufb "fifo" (c 2));
             set "st0" (bor Width.W8 (c 0x20) (fld "cur_drv"));
           ]
          @ end_idle_stmts)
          (icall (fld "irq") "w_seek_end");
        cmd_end "w_seek_end" [] (goto "w_exit");
        cmd_end "ex_perp"
          ([ set "perp" (bufb "fifo" (c 1)) ] @ end_idle_stmts)
          (goto "w_exit");
        cmd_end "ex_configure"
          ([ set "config" (bufb "fifo" (c 2)); set "precomp" (bufb "fifo" (c 3)) ]
          @ end_idle_stmts)
          (goto "w_exit");
        blk "ex_readid"
          [
            set "st0" (bor Width.W8 (fld "cur_drv") (shl Width.W8 (fld "head") (c 2)));
            set "st1" (c ~w:Width.W8 0);
            set "st2" (c ~w:Width.W8 0);
          ]
          (goto "ex_readid_stage");
        blk "ex_readid_stage" stage_result7_stmts (icall (fld "irq") "w_readid_end");
        cmd_end "w_readid_end" [] (goto "w_exit");
        blk "ex_rsetup"
          [
            set "cur_drv" (band Width.W8 (bufb "fifo" (c 1)) (c 3));
            set "head" (band Width.W8 (shr Width.W8 (bufb "fifo" (c 1)) (c 2)) (c 1));
            set "track" (bufb "fifo" (c 2));
            set "sect" (bufb "fifo" (c 4));
            fill "fifo" ~off:(c 0) ~len:(c fifo_size) sector_pattern;
            set "phase" (c ~w:Width.W8 1);
            set "data_dir" (c ~w:Width.W8 1);
            set "data_pos" (c 0);
            set "data_len" (c fifo_size);
            set "msr" (c ~w:Width.W8 (msr_rqm lor msr_dio lor msr_ndma lor msr_cb));
          ]
          (icall (fld "irq") "w_rsetup_end");
        blk "w_rsetup_end" [] (goto "w_exit");
        blk "ex_wsetup"
          [
            set "cur_drv" (band Width.W8 (bufb "fifo" (c 1)) (c 3));
            set "head" (band Width.W8 (shr Width.W8 (bufb "fifo" (c 1)) (c 2)) (c 1));
            set "track" (bufb "fifo" (c 2));
            set "sect" (bufb "fifo" (c 4));
            set "phase" (c ~w:Width.W8 1);
            set "data_dir" (c ~w:Width.W8 0);
            set "data_pos" (c 0);
            set "data_len" (c fifo_size);
            set "msr" (c ~w:Width.W8 (msr_rqm lor msr_ndma lor msr_cb));
          ]
          (goto "w_exit");
        exit_ "w_exit" [];
      ])

let read_handler =
  handler "read"
    ~params:[ "addr"; "offset"; "size"; "data" ]
    [
      entry "r_entry" []
        (switch (prm "offset")
           [
             (0, "r_sra");
             (1, "r_srb");
             (3, "r_tdr");
             (4, "r_msr");
             (5, "r_fifo");
             (7, "r_dir");
           ]
           "r_bogus");
      blk "r_sra" [ respond (c 0) ] (goto "r_exit");
      blk "r_srb" [ respond (c 0) ] (goto "r_exit");
      blk "r_tdr" [ respond (fld "tdr") ] (goto "r_exit");
      blk "r_msr" [ respond (fld "msr") ] (goto "r_exit");
      blk "r_dir" [ respond (fld "dir_reg") ] (goto "r_exit");
      blk "r_bogus" [ respond (c 0xFF) ] (goto "r_exit");
      blk "r_fifo" [] (br (fld "phase" ==% c 2) "r_result" "r_exec_chk");
      blk "r_result"
        [
          respond (bufb "fifo" (fld "data_pos"));
          set "data_pos" (fld "data_pos" +% c 1);
        ]
        (br (fld "data_pos" >=% fld "data_len") "r_done" "r_exit");
      cmd_end "r_done"
        [
          set "phase" (c ~w:Width.W8 0);
          set "data_pos" (c 0);
          set "data_len" (c 0);
          set "cmd" (c ~w:Width.W8 0);
          set "msr" (c ~w:Width.W8 msr_rqm);
        ]
        (goto "r_exit");
      blk "r_exec_chk" [] (br (fld "phase" ==% c 1) "r_exec_dir" "r_bogus2");
      blk "r_exec_dir" [] (br (fld "data_dir" ==% c 1) "r_exec_byte" "r_bogus2");
      blk "r_bogus2" [ respond (c 0) ] (goto "r_exit");
      blk "r_exec_byte"
        [
          respond (bufb "fifo" (fld "data_pos"));
          set "data_pos" (fld "data_pos" +% c 1);
        ]
        (br (fld "data_pos" >=% fld "data_len") "r_to_result" "r_exit");
      blk "r_to_result"
        ([
           set "st0"
             (bor Width.W8 (fld "cur_drv") (shl Width.W8 (fld "head") (c 2)));
         ]
        @ stage_result7_stmts)
        (icall (fld "irq") "r_result_staged");
      blk "r_result_staged" [] (goto "r_exit");
      exit_ "r_exit" [];
    ]

let program ~version =
  let vulnerable = Qemu_version.(version < venom_fixed_in) in
  Program.make ~name ~layout ~code_base:0x0040_0000L
    ~callbacks:[ (irq_cb, { Program.cb_name = "fdc_irq"; action = Program.Raise_irq_line }) ]
    [ write_handler ~vulnerable; read_handler ]

let device ~version =
  let program = program ~version in
  {
    Device.name;
    version;
    program;
    make_binding =
      (fun () ->
        Device.binding_of ~program
          ~pmio:[ (io_base, 8) ]
          ~pmio_read:"read" ~pmio_write:"write" ());
  }
