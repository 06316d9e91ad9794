(* Tests for the SEDSpec core: parameter selection, log collection, ES-CFG
   construction (Algorithm 1), control-flow reduction, data-dependency
   recovery, and the ES-Checker's three strategies and two modes. *)

open Devir

module QV = Devices.Qemu_version

let training_cases = 12

let build_for ?(version = None) name =
  let w = Workload.Samples.find name in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let version = Option.value version ~default:W.paper_version in
  let m = W.make_machine version in
  let built =
    Sedspec.Pipeline.build m ~device:name (W.trainer ~cases:training_cases)
  in
  (m, built, w)

(* Cache: the FDC build is reused by several tests. *)
let fdc_built = lazy (build_for "fdc")

let string_contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let empty_selection =
  {
    Sedspec.Selection.scalars = [];
    buffers = [];
    fn_ptrs = [];
    index_params = [];
    tracked_buffers = [];
    rationale = [];
  }

(* --- Selection --------------------------------------------------------- *)

let test_selection_fdc_matches_paper_table1 () =
  let _, built, _ = Lazy.force fdc_built in
  let sel = Sedspec.Es_cfg.selection built.spec in
  (* Table I's examples: msr/dor/tdr registers, fifo buffer, data_pos
     counting variable, irq function pointer. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " selected") true
        (Sedspec.Selection.is_scalar_param sel p))
    [ "msr"; "dor"; "tdr"; "data_pos"; "data_len"; "cmd"; "phase"; "irq" ];
  Alcotest.(check bool) "fifo selected as buffer" true
    (Sedspec.Selection.is_buffer_param sel "fifo");
  Alcotest.(check (list string)) "fn ptrs" [ "irq" ] sel.fn_ptrs;
  Alcotest.(check bool) "data_pos is an index param" true
    (List.mem "data_pos" sel.index_params)

let test_selection_other_devices () =
  (* Rule-based selection lands on the security-relevant fields for every
     device (paper Table I's categories). *)
  let check_static name expects_scalars expects_tracked =
    let w = Workload.Samples.find name in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let p =
      Interp.program (Vmm.Machine.interp_of (W.make_machine W.paper_version) W.device_name)
    in
    let sel = Sedspec.Selection.select_static p in
    List.iter
      (fun f ->
        Alcotest.(check bool) (name ^ ": " ^ f ^ " selected") true
          (Sedspec.Selection.is_scalar_param sel f))
      expects_scalars;
    List.iter
      (fun b ->
        Alcotest.(check bool) (name ^ ": " ^ b ^ " content-tracked") true
          (List.mem b sel.tracked_buffers))
      expects_tracked
  in
  (* EHCI: the CVE-2020-14364 parameters. *)
  check_static "ehci" [ "setup_len"; "setup_index"; "setup_state"; "irq" ] [ "setup_buf" ];
  (* SDHCI: the CVE-2021-3409 parameters. *)
  check_static "sdhci" [ "blksize"; "data_count"; "transfer_active"; "is_read"; "irq" ] [];
  (* PCNet: ring/packet bookkeeping. *)
  check_static "pcnet" [ "csr0"; "rcvrl"; "recv_idx"; "xmit_pos"; "mode"; "irq" ] [];
  (* SCSI: both overflow targets and the completion pointer.  Note
     req_active is NOT selected at the vulnerable 2.4.0 version — the
     missing req_active guard is exactly CVE-2016-1568's bug, so nothing
     branches on it and the analysis rightly drops it (the reason SEDSpec
     cannot see the replayed completion). *)
  check_static "scsi"
    [ "ti_size"; "scsi_state"; "cdb_len"; "disk_len"; "status"; "complete_fn"; "irq" ]
    [ "cmdbuf"; "cdb"; "ti_buf" ]

let test_selection_index_params_per_device () =
  let check name field buffer =
    let w = Workload.Samples.find name in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let p =
      Interp.program (Vmm.Machine.interp_of (W.make_machine W.paper_version) W.device_name)
    in
    let sel = Sedspec.Selection.select_static p in
    Alcotest.(check bool) (name ^ ": " ^ field ^ " is an index param") true
      (List.mem field sel.index_params);
    Alcotest.(check bool) (name ^ ": " ^ buffer ^ " is a buffer param") true
      (Sedspec.Selection.is_buffer_param sel buffer)
  in
  check "fdc" "data_pos" "fifo";
  check "ehci" "setup_index" "data_buf";
  check "sdhci" "data_count" "fifo_buffer";
  check "pcnet" "xmit_pos" "buffer";
  check "scsi" "ti_wptr" "ti_buf"

let test_selection_static_covers_all_devices () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let p = Interp.program (Vmm.Machine.interp_of (W.make_machine W.paper_version) W.device_name) in
      let sel = Sedspec.Selection.select_static p in
      Alcotest.(check bool) (W.device_name ^ " has scalars") true (sel.scalars <> []);
      Alcotest.(check bool) (W.device_name ^ " has buffers") true (sel.buffers <> []);
      Alcotest.(check bool) (W.device_name ^ " has fn ptrs") true (sel.fn_ptrs <> []))
    Workload.Samples.all

(* --- Logs -------------------------------------------------------------- *)

(* Drive the collector the way phase 2 does: each interaction arrives
   through [on_interaction] as it closes, and a [flush] marks each case
   boundary.  Only per-case counts are kept — the fdc logs run to hundreds
   of MB. *)
let test_log_collection_counts () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let trainer = W.trainer ~cases:training_cases in
  let p1 =
    Sedspec.Pipeline.collect (W.make_machine W.paper_version) ~device:"fdc"
      trainer
  in
  let m = W.make_machine W.paper_version in
  let interactions = ref 0 and entries = ref 0 in
  let collector =
    Sedspec.Ds_log.Collector.attach m ~device:"fdc"
      ~points:p1.observation_points
      ~state_params:p1.selection.Sedspec.Selection.scalars
      ~on_interaction:(fun (i : Sedspec.Ds_log.interaction) ->
        incr interactions;
        entries := !entries + List.length i.entries)
  in
  let take () =
    Sedspec.Ds_log.Collector.flush collector;
    let counts = (!interactions, !entries) in
    interactions := 0;
    entries := 0;
    counts
  in
  let counts =
    List.init training_cases (fun case ->
        trainer.Sedspec.Pipeline.run_case m case;
        (* Each interaction closed at its own dispatch: nothing waits for
           the case boundary. *)
        let closed = !interactions in
        let n, e = take () in
        Alcotest.(check int) (Printf.sprintf "case %d closed as it ran" case) closed n;
        (n, e))
  in
  let empty = take () in
  Sedspec.Ds_log.Collector.detach collector;
  Alcotest.(check int) "one count per case" training_cases (List.length counts);
  List.iteri
    (fun i (n, _) ->
      Alcotest.(check bool) (Printf.sprintf "case %d logged" i) true (n > 0))
    counts;
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 counts in
  Alcotest.(check bool) "thousands of interactions" true (sum fst > 1000);
  Alcotest.(check bool) "entries recorded" true (sum snd > 1000);
  Alcotest.(check (pair int int)) "an empty case delivers nothing" (0, 0) empty

let test_observation_points_are_joints () =
  let p = Devices.Fdc.program ~version:(QV.v 2 3 0) in
  let points = Sedspec.Ds_log.observation_points p in
  List.iter
    (fun bref ->
      let b = Program.find_block p bref in
      let ok =
        b.Block.kind <> Block.Normal
        ||
        match b.Block.term with
        | Term.Branch _ | Term.Switch _ | Term.Icall _ -> true
        | _ -> false
      in
      Alcotest.(check bool) (Program.bref_to_string bref ^ " is a joint") true ok)
    points

(* --- ES-CFG ------------------------------------------------------------ *)

let test_escfg_structure () =
  let _, built, _ = Lazy.force fdc_built in
  let spec = built.spec in
  Alcotest.(check bool) "nodes" true (Sedspec.Es_cfg.node_count spec > 30);
  (* The drive-specification setup block was never trained. *)
  Alcotest.(check bool) "untrained block absent" true
    (Sedspec.Es_cfg.node spec { Program.handler = "write"; label = "su_drivespec" }
    = None);
  (* A trained conditional has directional counts. *)
  (match Sedspec.Es_cfg.node spec { Program.handler = "write"; label = "w_cmd_phase" } with
  | Some n ->
    Alcotest.(check bool) "both directions trained" true (n.taken > 0 && n.not_taken > 0)
  | None -> Alcotest.fail "w_cmd_phase missing");
  (* Icall targets collected. *)
  (match Sedspec.Es_cfg.node spec { Program.handler = "write"; label = "ex_seek" } with
  | Some n ->
    Alcotest.(check (list int64)) "legit irq target" [ Devices.Fdc.irq_cb ] n.itargets
  | None -> Alcotest.fail "ex_seek missing");
  (* Commands decoded into the access table. *)
  Alcotest.(check bool) "seek command known" true
    (Sedspec.Es_cfg.cmd_known spec
       ({ Program.handler = "write"; label = "w_new_cmd" }, 0x0FL));
  Alcotest.(check bool) "drive-spec command unknown" false
    (Sedspec.Es_cfg.cmd_known spec
       ({ Program.handler = "write"; label = "w_new_cmd" }, 0x8EL))

let test_escfg_reduction_only_trivial () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let unreduced =
    Sedspec.Pipeline.build ~reduce:false m ~device:"fdc" (W.trainer ~cases:6)
  in
  let removable =
    List.filter
      (fun (n : Sedspec.Es_cfg.node) ->
        n.kind = Block.Normal && n.dsod = []
        && match n.term with Term.Goto _ -> true | _ -> false)
      (Sedspec.Es_cfg.nodes unreduced.spec)
  in
  let before = Sedspec.Es_cfg.node_count unreduced.spec in
  let removed = Sedspec.Es_cfg.reduce unreduced.spec in
  Alcotest.(check int) "exactly the trivial nodes" (List.length removable) removed;
  Alcotest.(check int) "count consistent" (before - removed)
    (Sedspec.Es_cfg.node_count unreduced.spec)

let test_dsod_lifting_rule () =
  let open Devir.Dsl in
  let stmts =
    [
      set "x" (c 1);
      respond (c 2);
      note "hi";
      local "t" (c 3);
      store (c 0) (c 1);
      Stmt.Read_guest { local = "g"; addr = c 0; width = Width.W32 };
    ]
  in
  let lifted = Sedspec.Es_cfg.lift_dsod stmts in
  Alcotest.(check int) "keeps state, locals, guest reads" 3 (List.length lifted)

(* --- Data dependencies -------------------------------------------------- *)

let test_datadep_pcnet_sync_point () =
  let _, built, _ = build_for "pcnet" in
  (* The BCR4 link-status read branches on a host value: a sync point. *)
  Alcotest.(check bool) "pcnet has a sync point" true (built.datadep.sync_points > 0);
  let sync = Sedspec.Es_cfg.sync_points built.spec in
  Alcotest.(check bool) "r_lnkst is the sync block" true
    (List.exists
       (fun ((b : Program.bref), locals) ->
         b.label = "r_lnkst" && List.mem "lnk" locals)
       sync)

let test_datadep_fdc_fully_substituted () =
  let _, built, _ = Lazy.force fdc_built in
  Alcotest.(check int) "no sync points" 0 built.datadep.sync_points;
  Alcotest.(check int) "no guest replay" 0 built.datadep.guest_replay;
  Alcotest.(check bool) "all substituted" true (built.datadep.substituted > 0)

let test_datadep_pcnet_guest_replay () =
  let _, built, _ = build_for "pcnet" in
  (* Descriptor own-bit branches read guest memory. *)
  Alcotest.(check bool) "guest replay sites" true (built.datadep.guest_replay > 0)

(* Synthetic one-handler program: a host value and a guest load feed two
   locals; the branch site is where classification is queried. *)
let datadep_syn_program () =
  let open Devir.Dsl in
  let layout = Layout.make [ Layout.reg ~hw:true "st" Width.W8 ] in
  Program.make ~name:"ddsyn" ~layout
    [
      handler "d" ~params:[]
        [
          entry "e0"
            [
              hostv "hv" "clock";
              load "gv" (c 0x100);
              local "pure" (c 2);
            ]
            (goto "b1");
          blk "b1" [] (br (lcl "hv") "x" "x");
          exit_ "x" [];
        ];
    ]

(* The headline regression: [Datadep.analyze] used to classify a decision
   by its terminator's FIRST expression only (an [e :: _] match).  A site
   whose second expression is host-derived was silently treated as
   substitutable — the checker would then walk it pre-execution with a
   value it cannot compute.  The classification must join over all
   expressions: any host dependence wins, then any guest dependence. *)
let test_datadep_joins_all_exprs () =
  let p = datadep_syn_program () in
  let site = { Program.handler = "d"; label = "b1" } in
  let classify exprs = Sedspec.Datadep.classify_exprs p site exprs in
  let cls =
    Alcotest.testable
      (Fmt.of_to_string (function
        | Sedspec.Datadep.Substituted -> "substituted"
        | Guest_replay -> "guest-replay"
        | Sync_point -> "sync-point"))
      ( = )
  in
  let open Devir.Dsl in
  (* Failing before the fix: the head is pure, the tail is host-derived. *)
  Alcotest.(check (option cls)) "host dep in SECOND expr forces sync"
    (Some Sedspec.Datadep.Sync_point)
    (classify [ c 1; lcl "hv" ]);
  Alcotest.(check (option cls)) "host dep in head still syncs"
    (Some Sedspec.Datadep.Sync_point)
    (classify [ lcl "hv"; c 1 ]);
  Alcotest.(check (option cls)) "guest dep in second expr replays"
    (Some Sedspec.Datadep.Guest_replay)
    (classify [ lcl "pure"; lcl "gv" ]);
  Alcotest.(check (option cls)) "host beats guest in the join"
    (Some Sedspec.Datadep.Sync_point)
    (classify [ lcl "gv"; lcl "hv" ]);
  Alcotest.(check (option cls)) "pure exprs substitute"
    (Some Sedspec.Datadep.Substituted)
    (classify [ c 1; lcl "pure" ]);
  Alcotest.(check (option cls)) "no exprs, no classification" None (classify [])

(* Flow sensitivity: a host-derived local that is strongly redefined from
   a constant before the decision does not force a sync point — only
   definitions that actually reach the site count. *)
let test_datadep_flow_sensitive () =
  let open Devir.Dsl in
  let layout = Layout.make [ Layout.reg ~hw:true "st" Width.W8 ] in
  let p =
    Program.make ~name:"ddflow" ~layout
      [
        handler "f" ~params:[]
          [
            entry "e0" [ hostv "t" "clock" ] (goto "m");
            blk "m" [ local "t" (c 5) ] (goto "b");
            blk "b" [] (br (lcl "t") "x" "x");
            exit_ "x" [];
          ];
      ]
  in
  let site = { Program.handler = "f"; label = "b" } in
  Alcotest.(check bool) "ddg sees only the reaching constant def" true
    (Sedspec.Datadep.classify_site p site (lcl "t")
    = Sedspec.Datadep.Substituted)

(* --- Deterministic spec surface ----------------------------------------- *)

(* [commands]/[sync_points] used to leak Hashtbl fold order: two specs
   holding identical training state could print different stats, viz and
   JSON.  Build the same access table in opposite insertion orders and
   require identical observable output. *)
let test_escfg_deterministic_order () =
  let program = Devices.Fdc.program ~version:(QV.v 2 3 0) in
  let blocks =
    let acc = ref [] in
    Program.iter_blocks program (fun bref _ -> acc := bref :: !acc);
    Array.of_list (List.rev !acc)
  in
  let cmds =
    [ (blocks.(4), 0x10L); (blocks.(0), 0x8L); (blocks.(4), 0x2L);
      (blocks.(2), 0x45L) ]
  in
  let members = [ blocks.(1); blocks.(5); blocks.(3) ] in
  let build order_cmds order_members =
    let spec = Sedspec.Es_cfg.create ~program ~selection:empty_selection in
    List.iter
      (fun key ->
        List.iter
          (fun b -> Sedspec.Es_cfg.import_access spec ~cmd:(Some key) b)
          order_members)
      order_cmds;
    List.iter (Sedspec.Es_cfg.import_access spec ~cmd:None) order_members;
    List.iter
      (fun (b : Program.bref) ->
        Sedspec.Es_cfg.import_node spec b ~visits:1 ~taken:0 ~not_taken:0
          ~cases:[] ~itargets:[] ~succs:[])
      order_members;
    spec
  in
  let s1 = build cmds members in
  let s2 = build (List.rev cmds) (List.rev members) in
  Alcotest.(check bool) "commands sorted identically" true
    (Sedspec.Es_cfg.commands s1 = Sedspec.Es_cfg.commands s2);
  Alcotest.(check bool) "access entries identical" true
    (Sedspec.Es_cfg.access_entries s1 = Sedspec.Es_cfg.access_entries s2);
  Alcotest.(check string) "pp_stats identical"
    (Format.asprintf "%a" Sedspec.Es_cfg.pp_stats s1)
    (Format.asprintf "%a" Sedspec.Es_cfg.pp_stats s2);
  (* And the sorted views really are sorted. *)
  let sorted_cmds = Sedspec.Es_cfg.commands s1 in
  Alcotest.(check bool) "commands ascending" true
    (List.sort
       (fun (b1, v1) (b2, v2) ->
         match Program.bref_compare b1 b2 with
         | 0 -> Int64.compare v1 v2
         | n -> n)
       sorted_cmds
    = sorted_cmds)

let test_escfg_reduce_idempotent () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let built =
    Sedspec.Pipeline.build ~reduce:false m ~device:"fdc" (W.trainer ~cases:6)
  in
  let spec = built.spec in
  let r1 = Sedspec.Es_cfg.reduce spec in
  Alcotest.(check bool) "first reduce removes nodes" true (r1 > 0);
  Alcotest.(check int) "counter after first pass" r1
    (Sedspec.Es_cfg.reduced_count spec);
  let r2 = Sedspec.Es_cfg.reduce spec in
  Alcotest.(check int) "second reduce is a no-op" 0 r2;
  Alcotest.(check int) "counter unchanged" r1 (Sedspec.Es_cfg.reduced_count spec);
  (* No surviving successor edge dangles into a removed block. *)
  Alcotest.(check (list string)) "no dangling successors" []
    (List.map
       (fun (e : Validate.error) -> e.message)
       (Sedspec.Es_cfg.validate spec))

(* --- Checker: benign traffic -------------------------------------------- *)

let test_checker_zero_fp_on_training_replay () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let m = W.make_machine W.paper_version in
      let built =
        Sedspec.Pipeline.build m ~device:W.device_name
          (W.trainer ~cases:training_cases)
      in
      let checker = Sedspec.Pipeline.protect m ~device:W.device_name built in
      let trainer = W.trainer ~cases:training_cases in
      for case = 0 to training_cases - 1 do
        trainer.Sedspec.Pipeline.run_case m case
      done;
      let anoms = Sedspec.Checker.drain_anomalies checker in
      if anoms <> [] then
        Alcotest.failf "%s: %d false positives, first: %s" W.device_name
          (List.length anoms)
          (Format.asprintf "%a" Sedspec.Checker.pp_anomaly (List.hd anoms));
      let stats = Sedspec.Checker.stats checker in
      Alcotest.(check bool) (W.device_name ^ " interactions checked") true
        (stats.Sedspec.Checker.interactions > 100))
    Workload.Samples.all

let test_checker_soak_zero_fp_without_rare () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let r =
        Metrics.Fpr.soak ~seed:5L ~cases_per_hour:6 ~checkpoint_hours:[ 1 ]
          ~rare_prob:0.0
          (module W)
      in
      Alcotest.(check int) (W.device_name ^ " fp-free without rare tail") 0 r.fp_cases)
    Workload.Samples.all

let test_checker_rare_command_is_flagged () =
  let m, built, _ = Lazy.force fdc_built in
  let checker =
    Sedspec.Pipeline.protect
      ~config:
        { Sedspec.Checker.default_config with Sedspec.Checker.mode = Sedspec.Checker.Enhancement }
      m ~device:"fdc" built
  in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  (* VERSION is trained (drivers probe it at init); DUMPREG is not. *)
  ignore (Workload.Fdc_driver.version d);
  Alcotest.(check int) "trained maintenance command passes" 0
    (List.length (Sedspec.Checker.drain_anomalies checker));
  ignore (Workload.Fdc_driver.dumpreg d);
  let anoms = Sedspec.Checker.drain_anomalies checker in
  Alcotest.(check bool) "rare command flagged" true (anoms <> []);
  Alcotest.(check bool) "conditional strategy" true
    (List.for_all
       (fun (a : Sedspec.Checker.anomaly) ->
         a.strategy = Sedspec.Checker.Conditional_jump_check)
       anoms);
  Alcotest.(check bool) "enhancement mode does not halt" false (Vmm.Machine.halted m)

let test_checker_protection_halts_enhancement_warns () =
  (* Same anomaly, both modes. *)
  let run mode =
    let w = Workload.Samples.find "fdc" in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let m = W.make_machine W.paper_version in
    let built = Sedspec.Pipeline.build m ~device:"fdc" (W.trainer ~cases:6) in
    let checker =
      Sedspec.Pipeline.protect
        ~config:{ Sedspec.Checker.default_config with Sedspec.Checker.mode }
        m ~device:"fdc" built
    in
    let d = Workload.Fdc_driver.create m in
    ignore (Workload.Fdc_driver.reset d);
    ignore (Workload.Fdc_driver.dumpreg d);
    (Vmm.Machine.halted m, Sedspec.Checker.drain_anomalies checker <> [],
     Vmm.Machine.warnings m <> [])
  in
  let halted_p, detected_p, _ = run Sedspec.Checker.Protection in
  Alcotest.(check bool) "protection halts" true halted_p;
  Alcotest.(check bool) "protection detects" true detected_p;
  let halted_e, detected_e, warned_e = run Sedspec.Checker.Enhancement in
  Alcotest.(check bool) "enhancement does not halt" false halted_e;
  Alcotest.(check bool) "enhancement detects" true detected_e;
  Alcotest.(check bool) "enhancement warns" true warned_e

let test_checker_sync_point_deferral () =
  let m, built, _ = build_for "pcnet" in
  let checker = Sedspec.Pipeline.protect m ~device:"pcnet" built in
  let d = Workload.Pcnet_driver.create m in
  ignore (Workload.Pcnet_driver.reset d);
  ignore (Workload.Pcnet_driver.init d ~mode:0 ());
  ignore (Workload.Pcnet_driver.start d);
  ignore (Workload.Pcnet_driver.link_up d);
  let stats = Sedspec.Checker.stats checker in
  Alcotest.(check bool) "link read deferred through sync" true
    (stats.Sedspec.Checker.deferred > 0);
  Alcotest.(check bool) "no anomaly" true
    (Sedspec.Checker.drain_anomalies checker = [])

let test_checker_resync_after_halt () =
  let m, built, _ = Lazy.force fdc_built in
  let checker = Sedspec.Pipeline.protect m ~device:"fdc" built in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.dumpreg d);
  Alcotest.(check bool) "halted on rare command" true (Vmm.Machine.halted m);
  Vmm.Machine.resume m;
  Sedspec.Checker.resync checker;
  ignore (Sedspec.Checker.drain_anomalies checker);
  (* Normal traffic clean again after resync. *)
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  (match Workload.Fdc_driver.read_sector d ~drive:0 ~head:0 ~track:2 ~sect:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "benign read blocked after resync");
  Alcotest.(check (list reject)) "clean" []
    (List.map (fun _ -> ()) (Sedspec.Checker.drain_anomalies checker))

(* --- Checker: strategy separation (one attack per strategy) ------------- *)

let detect_with attack_cve strategy =
  Metrics.Spec_cache.training_cases := training_cases;
  let attack = Attacks.Attack.find attack_cve in
  let w = Workload.Samples.find attack.device in
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine
      ~config:
        { Sedspec.Checker.default_config with Sedspec.Checker.strategies = [ strategy ] }
      w attack.qemu_version
  in
  attack.setup m;
  ignore (Sedspec.Checker.drain_anomalies checker);
  (try attack.run m with Exit -> ());
  Sedspec.Checker.drain_anomalies checker <> []

let test_strategy_parameter_only () =
  Alcotest.(check bool) "venom via parameter check" true
    (detect_with "CVE-2015-3456" Sedspec.Checker.Parameter_check);
  Alcotest.(check bool) "7504 invisible to parameter check" false
    (detect_with "CVE-2015-7504" Sedspec.Checker.Parameter_check)

let test_strategy_indirect_only () =
  Alcotest.(check bool) "7504 via indirect check" true
    (detect_with "CVE-2015-7504" Sedspec.Checker.Indirect_jump_check);
  Alcotest.(check bool) "3409 invisible to indirect check" false
    (detect_with "CVE-2021-3409" Sedspec.Checker.Indirect_jump_check)

let test_strategy_conditional_only () =
  Alcotest.(check bool) "7909 via conditional check (walk limit)" true
    (detect_with "CVE-2016-7909" Sedspec.Checker.Conditional_jump_check);
  Alcotest.(check bool) "3409 invisible to conditional check" false
    (detect_with "CVE-2021-3409" Sedspec.Checker.Conditional_jump_check)

let test_prevention_is_pre_execution () =
  (* Parameter check stops venom before the device writes out of bounds. *)
  Metrics.Spec_cache.training_cases := training_cases;
  let attack = Attacks.Attack.find "CVE-2015-3456" in
  let w = Workload.Samples.find "fdc" in
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine
      ~config:
        {
          Sedspec.Checker.default_config with
          Sedspec.Checker.strategies = [ Sedspec.Checker.Parameter_check ];
        }
      w attack.qemu_version
  in
  attack.setup m;
  let effects =
    Attacks.Attack.observe_effects m ~device:"fdc"
      (fun () -> try attack.run m with Exit -> ())
      attack
  in
  Alcotest.(check int) "no corruption happened" 0 effects.oob_writes;
  Alcotest.(check int) "no trap happened" 0 (List.length effects.traps);
  let anoms = Sedspec.Checker.drain_anomalies checker in
  Alcotest.(check bool) "anomaly was pre-execution" true
    (List.for_all (fun (a : Sedspec.Checker.anomaly) -> a.pre_execution) anoms
    && anoms <> [])

(* --- Persistence --------------------------------------------------------- *)

let test_persist_roundtrip () =
  let _, built, _ = Lazy.force fdc_built in
  let text = Sedspec.Persist.to_string built.spec in
  let program = Sedspec.Es_cfg.program built.spec in
  match Sedspec.Persist.of_string ~program text with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok spec' ->
    Alcotest.(check int) "node count" (Sedspec.Es_cfg.node_count built.spec)
      (Sedspec.Es_cfg.node_count spec');
    Alcotest.(check int) "commands" (List.length (Sedspec.Es_cfg.commands built.spec))
      (List.length (Sedspec.Es_cfg.commands spec'));
    (* Node statistics survive. *)
    List.iter
      (fun (n : Sedspec.Es_cfg.node) ->
        match Sedspec.Es_cfg.node spec' n.bref with
        | Some n' ->
          Alcotest.(check int) "visits" n.visits n'.visits;
          Alcotest.(check int) "taken" n.taken n'.taken;
          Alcotest.(check int) "not taken" n.not_taken n'.not_taken;
          Alcotest.(check (list int64)) "itargets" n.itargets n'.itargets;
          Alcotest.(check int) "cases" (List.length n.cases) (List.length n'.cases)
        | None -> Alcotest.failf "node %s lost" (Program.bref_to_string n.bref))
      (Sedspec.Es_cfg.nodes built.spec);
    (* Selection survives. *)
    let s = Sedspec.Es_cfg.selection built.spec
    and s' = Sedspec.Es_cfg.selection spec' in
    Alcotest.(check (list string)) "scalars" s.scalars s'.scalars;
    Alcotest.(check (list string)) "tracked buffers" s.tracked_buffers s'.tracked_buffers

let test_persist_rejects_garbage () =
  let p = Devices.Fdc.program ~version:(QV.v 2 3 0) in
  (match Sedspec.Persist.of_string ~program:p "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match
    Sedspec.Persist.of_string ~program:p
      "sedspec-spec v1\nprogram pcnet\nend\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong program accepted"

let test_persisted_spec_still_detects () =
  (* Save the trained FDC spec, reload it, protect a fresh machine with it
     and confirm venom is still caught. *)
  let _, built, _ = Lazy.force fdc_built in
  let text = Sedspec.Persist.to_string built.spec in
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine (QV.v 2 3 0) in
  let program = Interp.program (Vmm.Machine.interp_of m "fdc") in
  match Sedspec.Persist.of_string ~program text with
  | Error msg -> Alcotest.failf "reload failed: %s" msg
  | Ok spec ->
    let checker = Sedspec.Checker.attach m ~spec "fdc" in
    let d = Workload.Fdc_driver.create m in
    ignore (Workload.Fdc_driver.reset d);
    ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
    ignore (Workload.Fdc_driver.sense_interrupt d);
    Alcotest.(check int) "benign clean" 0
      (List.length (Sedspec.Checker.drain_anomalies checker));
    ignore (Workload.Io.outb m (Int64.add Devices.Fdc.io_base 5L) 0x8E);
    Alcotest.(check bool) "venom detected by reloaded spec" true
      (Sedspec.Checker.drain_anomalies checker <> [])

let test_persist_stale_allow_fails () =
  (* A node line closes any open cmd block; an allow line appearing after
     it used to silently extend the previous command's access set. *)
  let p = Devices.Fdc.program ~version:(QV.v 2 3 0) in
  let text =
    "sedspec-spec v1\n\
     program fdc\n\
     cmd write w_dispatch 15\n\
    \  allow write ex_seek\n\
     node write w_dispatch 3 1 2\n\
    \  allow write ex_seek\n\
     end\n"
  in
  match Sedspec.Persist.of_string ~program:p text with
  | Error msg ->
    Alcotest.(check bool) "fails fast on the stale allow" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "stale allow after a node was accepted"

let test_persist_rejects_bad_names () =
  (* The format is word/comma separated: a name with a space or comma
     cannot round-trip, so saving must refuse instead of corrupting. *)
  let p = Devices.Fdc.program ~version:(QV.v 2 3 0) in
  List.iter
    (fun scalar ->
      let sel = { empty_selection with Sedspec.Selection.scalars = [ scalar ] } in
      let spec = Sedspec.Es_cfg.create ~program:p ~selection:sel in
      let target = Filename.concat (Filename.get_temp_dir_name ()) "bad.spec" in
      (match Sedspec.Persist.save spec target with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "saved unpersistable scalar %S" scalar);
      Alcotest.(check bool) "no file was written" false (Sys.file_exists target);
      match Sedspec.Persist.to_string spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "serialised unpersistable scalar %S" scalar)
    [ "bad name"; "bad,name"; "bad\nname"; "" ]

let test_persist_save_atomic_roundtrip () =
  let _, built, _ = Lazy.force fdc_built in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sedspec_persist_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let path = Filename.concat dir "fdc.spec" in
  (match Sedspec.Persist.save built.spec path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  (* The temp file was renamed over the target, not left behind. *)
  Alcotest.(check (list string)) "only the spec file remains" [ "fdc.spec" ]
    (Array.to_list (Sys.readdir dir));
  let program = Sedspec.Es_cfg.program built.spec in
  (match Sedspec.Persist.load ~program path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok spec' ->
    Alcotest.(check int) "node count survives the file"
      (Sedspec.Es_cfg.node_count built.spec)
      (Sedspec.Es_cfg.node_count spec'));
  Sys.remove path;
  (* An unwritable destination is a clean [Error], not an exception or a
     half-written file. *)
  match Sedspec.Persist.save built.spec (Filename.concat dir "no/such/dir.spec") with
  | Error _ -> Sys.rmdir dir
  | Ok () -> Alcotest.fail "save into a missing directory succeeded"

let test_persist_crc_detects_corruption () =
  let _, built, _ = Lazy.force fdc_built in
  let text = Sedspec.Persist.to_string built.spec in
  let program = Sedspec.Es_cfg.program built.spec in
  (* The serialisation ends with a crc trailer over the body. *)
  let lines = String.split_on_char '\n' (String.trim text) in
  (match List.rev lines with
  | last :: _ ->
    Alcotest.(check bool) "crc trailer present" true
      (String.length last = 12 && String.sub last 0 4 = "crc ")
  | [] -> Alcotest.fail "empty serialisation");
  (* Any single flipped bit is rejected on load, wherever it lands —
     including inside the trailer itself. *)
  List.iter
    (fun i ->
      let b = Bytes.of_string text in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
      match Sedspec.Persist.of_string ~program (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip at offset %d accepted" i)
    [ 0; String.length text / 3; String.length text / 2;
      String.length text - 2 ];
  (* Truncations either fail to load or (cut exactly at the trailer
     seam, where the body is still a complete legacy file) reload to a
     semantically identical spec. *)
  List.iter
    (fun n ->
      match Sedspec.Persist.of_string ~program (String.sub text 0 n) with
      | Error _ -> ()
      | Ok spec' ->
        Alcotest.(check string)
          (Printf.sprintf "truncation to %d bytes is semantically benign" n)
          text
          (Sedspec.Persist.to_string spec'))
    [
      String.length text / 4;
      String.length text / 2;
      String.length text - 1;
      String.length text - 13 (* exactly the crc line: a legacy file *);
    ]

let test_persist_legacy_without_crc_loads () =
  (* Spec files written before the crc trailer carry no [crc] line; they
     must still load, and re-serialising them adds the trailer back. *)
  let _, built, _ = Lazy.force fdc_built in
  let text = Sedspec.Persist.to_string built.spec in
  let program = Sedspec.Es_cfg.program built.spec in
  let legacy = String.sub text 0 (String.length text - 13) in
  Alcotest.(check bool) "legacy body ends with end" true
    (String.length legacy > 4
    && String.sub legacy (String.length legacy - 4) 4 = "end\n");
  match Sedspec.Persist.of_string ~program legacy with
  | Error msg -> Alcotest.failf "legacy file rejected: %s" msg
  | Ok spec' ->
    Alcotest.(check string) "legacy reload is identical" text
      (Sedspec.Persist.to_string spec')

(* Generator for arbitrary well-formed training state over the FDC
   program — shared by the persist round-trip property and the evolve
   self-diff property. *)
let training_state_program = Devices.Fdc.program ~version:(QV.v 2 3 0)

let training_state_blocks =
  let acc = ref [] in
  Program.iter_blocks training_state_program (fun bref _ -> acc := bref :: !acc);
  Array.of_list (List.rev !acc)

let training_state_gen =
  let blocks = training_state_blocks in
  let nblocks = Array.length blocks in
  let open QCheck.Gen in
  let idx = int_bound (nblocks - 1) in
  let stat = int_bound 9999 in
  let value = map Int64.of_int (int_bound 4095) in
  let node_for i =
    let* visits = stat and* taken = stat and* not_taken = stat in
    let* cases = list_size (int_bound 4) (pair value idx) in
    let* itargets = list_size (int_bound 4) value in
    let* succs = list_size (int_bound 4) idx in
    return (i, visits, taken, not_taken, cases, itargets, succs)
  in
  let* node_idxs = map (List.sort_uniq compare) (list_size (int_bound 12) idx) in
  let* nodes = flatten_l (List.map node_for node_idxs) in
  let* cmd_keys =
    map (List.sort_uniq compare) (list_size (int_bound 5) (pair idx value))
  in
  let* cmds =
    flatten_l
      (List.map
         (fun (i, v) ->
           let* allowed = list_size (int_range 1 5) idx in
           return (i, v, allowed))
         cmd_keys)
  in
  let* nocmd = map (List.sort_uniq compare) (list_size (int_bound 5) idx) in
  return (nodes, cmds, nocmd)

let build_training_state (nodes, cmds, nocmd) =
  let blocks = training_state_blocks in
  let spec =
    Sedspec.Es_cfg.create ~program:training_state_program
      ~selection:empty_selection
  in
  List.iter
    (fun (i, visits, taken, not_taken, cases, itargets, succs) ->
      Sedspec.Es_cfg.import_node spec blocks.(i) ~visits ~taken ~not_taken
        ~cases:(List.map (fun (v, li) -> (v, blocks.(li).Program.label)) cases)
        ~itargets
        ~succs:(List.map (fun si -> blocks.(si)) succs))
    nodes;
  List.iter
    (fun (di, v, allowed) ->
      List.iter
        (fun ai ->
          Sedspec.Es_cfg.import_access spec ~cmd:(Some (blocks.(di), v))
            blocks.(ai))
        allowed)
    cmds;
  List.iter
    (fun ni -> Sedspec.Es_cfg.import_access spec ~cmd:None blocks.(ni))
    nocmd;
  spec

(* Property: any well-formed training state round-trips through the text
   format — node statistics, observed cases, indirect targets, successor
   edges and the command access table all survive save -> load. *)
let persist_roundtrip_prop =
  let program = training_state_program in
  let blocks = training_state_blocks in
  QCheck.Test.make ~name:"persist round-trips any training state" ~count:60
    (QCheck.make training_state_gen) (fun desc ->
      let spec = build_training_state desc in
      match
        Sedspec.Persist.of_string ~program (Sedspec.Persist.to_string spec)
      with
      | Error msg -> QCheck.Test.fail_reportf "reload failed: %s" msg
      | Ok spec' ->
        Sedspec.Es_cfg.node_count spec = Sedspec.Es_cfg.node_count spec'
        && List.for_all
             (fun (n : Sedspec.Es_cfg.node) ->
               match Sedspec.Es_cfg.node spec' n.bref with
               | None -> false
               | Some n' ->
                 n.visits = n'.visits && n.taken = n'.taken
                 && n.not_taken = n'.not_taken && n.cases = n'.cases
                 && n.itargets = n'.itargets && n.succs = n'.succs)
             (Sedspec.Es_cfg.nodes spec)
        && List.sort compare (Sedspec.Es_cfg.commands spec)
           = List.sort compare (Sedspec.Es_cfg.commands spec')
        && List.for_all
             (fun key ->
               Array.for_all
                 (fun b ->
                   Sedspec.Es_cfg.cmd_allows spec key b
                   = Sedspec.Es_cfg.cmd_allows spec' key b)
                 blocks)
             (Sedspec.Es_cfg.commands spec)
        && Array.for_all
             (fun b ->
               Sedspec.Es_cfg.no_cmd_allows spec b
               = Sedspec.Es_cfg.no_cmd_allows spec' b)
             blocks)

let test_persist_all_devices () =
  Metrics.Spec_cache.training_cases := training_cases;
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let built = Metrics.Spec_cache.built (module W) W.paper_version in
      let program = Sedspec.Es_cfg.program built.spec in
      match Sedspec.Persist.of_string ~program (Sedspec.Persist.to_string built.spec) with
      | Error msg -> Alcotest.failf "%s: %s" W.device_name msg
      | Ok spec' ->
        Alcotest.(check int)
          (W.device_name ^ " node count survives")
          (Sedspec.Es_cfg.node_count built.spec)
          (Sedspec.Es_cfg.node_count spec');
        Alcotest.(check int)
          (W.device_name ^ " commands survive")
          (List.length (Sedspec.Es_cfg.commands built.spec))
          (List.length (Sedspec.Es_cfg.commands spec')))
    Workload.Samples.all

let test_persist_version_roundtrip () =
  (* Versioned persistence: a pristine trained spec is revision 0 with no
     [revision] line — exactly the legacy on-disk format — and reparses
     bit-identically; a stamped revision/provenance survives the
     round-trip. *)
  let _, built, _ = build_for "fdc" in
  let spec = built.spec in
  let program = Sedspec.Es_cfg.program spec in
  Alcotest.(check int) "pristine spec is revision 0" 0
    (Sedspec.Es_cfg.revision spec);
  let text = Sedspec.Persist.to_string spec in
  let has_revision_line t =
    String.split_on_char '\n' t
    |> List.exists (fun l ->
           String.length l >= 9 && String.sub l 0 9 = "revision ")
  in
  Alcotest.(check bool) "revision-0 file carries no revision line" false
    (has_revision_line text);
  (match Sedspec.Persist.of_string ~program text with
  | Error msg -> Alcotest.failf "legacy reload failed: %s" msg
  | Ok spec' ->
    Alcotest.(check int) "legacy file loads as revision 0" 0
      (Sedspec.Es_cfg.revision spec');
    Alcotest.(check string) "legacy round-trip is bit-identical" text
      (Sedspec.Persist.to_string spec'));
  Sedspec.Es_cfg.set_version spec ~revision:7
    ~provenance:(Sedspec.Es_cfg.Retrained 48);
  let stamped = Sedspec.Persist.to_string spec in
  Alcotest.(check bool) "stamped file carries a revision line" true
    (has_revision_line stamped);
  (match Sedspec.Persist.of_string ~program stamped with
  | Error msg -> Alcotest.failf "stamped reload failed: %s" msg
  | Ok spec' ->
    Alcotest.(check int) "revision survives" 7
      (Sedspec.Es_cfg.revision spec');
    Alcotest.(check bool) "provenance survives" true
      (Sedspec.Es_cfg.provenance spec' = Sedspec.Es_cfg.Retrained 48);
    Alcotest.(check string) "stamped round-trip is bit-identical" stamped
      (Sedspec.Persist.to_string spec'));
  (* A provenance tag outside [trained] / [retrained:N], such as
     [merged], is rejected, never guessed.  The CRC trailer is dropped
     so the tag check, not the checksum, decides. *)
  let merged =
    String.split_on_char '\n' stamped
    |> List.filter_map (fun l ->
           if String.length l >= 4 && String.sub l 0 4 = "crc " then None
           else if l = "revision 7 retrained:48" then Some "revision 7 merged"
           else Some l)
    |> String.concat "\n"
  in
  match Sedspec.Persist.of_string ~program merged with
  | Ok _ -> Alcotest.fail "a merged provenance tag must be rejected"
  | Error msg ->
    Alcotest.(check bool) "rejected for its provenance tag" true
      (string_contains msg "unknown provenance tag")

(* --- Evolution ------------------------------------------------------------ *)

(* Property: the structural diff of any training state against itself is
   empty — the comparison layer never invents a delta. *)
let self_diff_empty_prop =
  QCheck.Test.make ~name:"self-diff of any training state is empty" ~count:60
    (QCheck.make training_state_gen) (fun desc ->
      let spec = build_training_state desc in
      let d = Sedspec.Evolve.diff ~base:spec ~cand:spec in
      Sedspec.Evolve.is_empty d && Sedspec.Evolve.change_count d = 0)

let test_evolve_diff_trained_vs_retrained () =
  (* The diff is keyed by bref, so it compares any two trainings of one
     program.  Retraining on the same corpus reproduces the spec exactly:
     only the revision and provenance move. *)
  Metrics.Spec_cache.training_cases := training_cases;
  List.iter
    (fun name ->
      let w = Workload.Samples.find name in
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let base =
        (Metrics.Spec_cache.built (module W) W.paper_version).spec
      in
      let cand =
        (Metrics.Spec_cache.built_retrained (module W) W.paper_version
           ~cases:training_cases)
          .spec
      in
      let d = Sedspec.Evolve.diff ~base ~cand in
      Alcotest.(check int) (name ^ ": base is revision 0") 0 d.base_revision;
      Alcotest.(check bool) (name ^ ": candidate revision advanced") true
        (d.cand_revision > d.base_revision);
      Alcotest.(check bool) (name ^ ": retrained provenance") true
        (d.cand_provenance = Sedspec.Es_cfg.Retrained training_cases);
      Alcotest.(check bool) (name ^ ": same corpus, same spec") true
        (Sedspec.Evolve.is_empty d);
      (* Deterministic rendering: two renders of two computations agree. *)
      Alcotest.(check string) (name ^ ": diff JSON is deterministic")
        (Sedspec_util.Json.to_string (Sedspec.Evolve.diff_to_json d))
        (Sedspec_util.Json.to_string
           (Sedspec.Evolve.diff_to_json (Sedspec.Evolve.diff ~base ~cand))))
    (List.map
       (fun w ->
         let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
         W.device_name)
       Workload.Samples.all)

let test_evolve_diff_vulnerable_vs_patched () =
  (* Diff across device versions (the locator's setting): the bref
     keying makes specs trained on different program versions
     comparable.  Two complementary facts, both load-bearing for the
     rollout design: the sdhci patch is visible in benign evidence (a
     non-empty delta), while the FDC Venom patch is NOT — benign
     training cannot distinguish the vulnerable and patched models,
     which is exactly why the rollout ladder replays the attack
     catalogue instead of trusting the diff. *)
  Metrics.Spec_cache.training_cases := training_cases;
  let diff_versions name =
    let w = Workload.Samples.find name in
    let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
    let base = (Metrics.Spec_cache.built (module W) W.paper_version).spec in
    let cand =
      (Metrics.Spec_cache.built (module W) Devices.Qemu_version.latest).spec
    in
    (base, cand, Sedspec.Evolve.diff ~base ~cand)
  in
  let _, _, fdc_d = diff_versions "fdc" in
  Alcotest.(check bool) "Venom patch invisible to benign evidence" true
    (Sedspec.Evolve.is_empty fdc_d);
  let base, cand, d = diff_versions "sdhci" in
  Alcotest.(check bool) "sdhci patch changes the spec" false
    (Sedspec.Evolve.is_empty d);
  Alcotest.(check string) "cross-version diff JSON is deterministic"
    (Sedspec_util.Json.to_string (Sedspec.Evolve.diff_to_json d))
    (Sedspec_util.Json.to_string
       (Sedspec.Evolve.diff_to_json (Sedspec.Evolve.diff ~base ~cand)))

let test_checker_command_access_context () =
  (* The access table keys blocks by the current command: result bytes of a
     SEEK read back under SEEK's context, and the context survives across
     interactions. *)
  let _, built, _ = Lazy.force fdc_built in
  let spec = built.spec in
  (* Context is re-keyed by the execution dispatch switch, so the
     command's execution blocks live under the w_dispatch key. *)
  let w_dispatch : Program.bref = { handler = "write"; label = "w_dispatch" } in
  let seek = (w_dispatch, 0x0FL) and read = (w_dispatch, 0x46L) in
  Alcotest.(check bool) "seek cmd known" true (Sedspec.Es_cfg.cmd_known spec seek);
  (* The seek execution block is reachable under SEEK... *)
  Alcotest.(check bool) "ex_seek under seek" true
    (Sedspec.Es_cfg.cmd_allows spec seek
       { Program.handler = "write"; label = "ex_seek" });
  (* ...but not under READ. *)
  Alcotest.(check bool) "ex_seek not under read" false
    (Sedspec.Es_cfg.cmd_allows spec read
       { Program.handler = "write"; label = "ex_seek" });
  (* The exec-phase data reads belong to READ's subgraph. *)
  Alcotest.(check bool) "r_exec_byte under read" true
    (Sedspec.Es_cfg.cmd_allows spec read
       { Program.handler = "read"; label = "r_exec_byte" })

let test_viz_dot_output () =
  let _, built, _ = Lazy.force fdc_built in
  let dot = Sedspec.Viz.to_dot built.spec in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 100 && String.sub dot 0 7 = "digraph");
  (* Every node appears exactly once as a node statement. *)
  let count needle s =
    let n = String.length needle and m = String.length s in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check bool) "one-sided marker present" true (count "[one-sided]" dot > 0);
  Alcotest.(check int) "closing brace" 1 (count "\n}" dot)

(* --- Remedy --------------------------------------------------------------- *)

let test_remedy_severity_classification () =
  let mk strategy pre =
    {
      Sedspec.Checker.strategy;
      at = None;
      detail = "";
      pre_execution = pre;
    }
  in
  Alcotest.(check string) "param critical" "critical"
    (Sedspec.Remedy.severity_to_string
       (Sedspec.Remedy.severity_of (mk Sedspec.Checker.Parameter_check true)));
  Alcotest.(check string) "indirect high" "high"
    (Sedspec.Remedy.severity_to_string
       (Sedspec.Remedy.severity_of (mk Sedspec.Checker.Indirect_jump_check true)));
  Alcotest.(check string) "conditional medium" "medium"
    (Sedspec.Remedy.severity_to_string
       (Sedspec.Remedy.severity_of (mk Sedspec.Checker.Conditional_jump_check true)));
  Alcotest.(check string) "post-execution promotes" "high"
    (Sedspec.Remedy.severity_to_string
       (Sedspec.Remedy.severity_of (mk Sedspec.Checker.Conditional_jump_check false)))

let test_remedy_rollback_restores_state () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine (QV.v 2 3 0) in
  let built = Sedspec.Pipeline.build m ~device:"fdc" (W.trainer ~cases:8) in
  let checker = Sedspec.Pipeline.protect m ~device:"fdc" built in
  let sup = Sedspec.Remedy.create m ~device:"fdc" checker in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:21);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check (list reject)) "clean tick" []
    (List.map (fun _ -> ()) (Sedspec.Remedy.tick sup));
  let arena = Interp.arena (Vmm.Machine.interp_of m "fdc") in
  Alcotest.(check int64) "track before attack" 21L (Arena.get arena "track");
  (* A rare command halts the VM (protection mode). *)
  ignore (Workload.Fdc_driver.dumpreg d);
  Alcotest.(check bool) "halted" true (Vmm.Machine.halted m);
  let events = Sedspec.Remedy.tick sup in
  Alcotest.(check int) "one event" 1 (List.length events);
  Alcotest.(check bool) "rolled back and resumed" false (Vmm.Machine.halted m);
  Alcotest.(check int) "rollback counted" 1 (Sedspec.Remedy.rollbacks sup);
  Alcotest.(check int64) "state restored to checkpoint" 21L (Arena.get arena "track");
  (* The machine keeps working after the rollback. *)
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:5);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check (list reject)) "clean again" []
    (List.map (fun _ -> ()) (Sedspec.Remedy.tick sup))

let test_remedy_halt_policy_keeps_halted () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine (QV.v 2 3 0) in
  let built = Sedspec.Pipeline.build m ~device:"fdc" (W.trainer ~cases:8) in
  let checker = Sedspec.Pipeline.protect m ~device:"fdc" built in
  let sup =
    Sedspec.Remedy.create ~policy_of:(fun _ -> Sedspec.Remedy.Halt_vm) m
      ~device:"fdc" checker
  in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.dumpreg d);
  ignore (Sedspec.Remedy.tick sup);
  Alcotest.(check bool) "still halted" true (Vmm.Machine.halted m);
  Alcotest.(check int) "no rollback" 0 (Sedspec.Remedy.rollbacks sup)

(* --- Containment and fail-safe behaviour ---------------------------------- *)

let fresh_fdc ?config () =
  let w = Workload.Samples.find "fdc" in
  Metrics.Spec_cache.training_cases := training_cases;
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine ?config ~vmexit_cost:0 w
      (QV.v 2 3 0)
  in
  (m, checker, Workload.Fdc_driver.create m)

let test_checker_containment_fail_closed () =
  let m, checker, d = fresh_fdc () in
  Sedspec.Checker.set_fault_hook checker (Some (fun () -> failwith "boom"));
  ignore (Workload.Fdc_driver.reset d);
  (* Fail-closed (the default): the contained error halts the VM instead
     of letting the unchecked interaction through. *)
  Alcotest.(check bool) "halted" true (Vmm.Machine.halted m);
  Alcotest.(check int) "one contained error" 1
    (Sedspec.Checker.internal_errors checker);
  (match Sedspec.Checker.anomalies checker with
  | [ a ] ->
    Alcotest.(check string) "diagnostic strategy" "internal-error"
      (Sedspec.Checker.strategy_to_string a.strategy);
    Alcotest.(check bool) "detail names the exception" true
      (string_contains a.detail "boom")
  | l -> Alcotest.failf "expected exactly one anomaly, got %d" (List.length l));
  (* The exception never crossed the interposer: the dispatch returned
     normally and the machine records a halt, not a crash. *)
  Alcotest.(check bool) "halt reason recorded" true
    (Vmm.Machine.halt_reason m <> None)

let test_checker_containment_fail_open_warn () =
  let config =
    {
      Sedspec.Checker.default_config with
      on_internal_error = Sedspec.Checker.Fail_open_warn;
    }
  in
  let m, checker, d = fresh_fdc ~config () in
  Sedspec.Checker.set_fault_hook checker (Some (fun () -> failwith "boom"));
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
  (* Fail-open: the device keeps running, every contained error leaves a
     warning, and nothing halts. *)
  Alcotest.(check bool) "not halted" false (Vmm.Machine.halted m);
  Alcotest.(check bool) "warnings recorded" true (Vmm.Machine.warnings m <> []);
  Alcotest.(check bool) "errors counted" true
    (Sedspec.Checker.internal_errors checker > 0);
  (* Clearing the fault stops the bleeding: no further internal errors. *)
  Sedspec.Checker.set_fault_hook checker None;
  let n = Sedspec.Checker.internal_errors checker in
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check int) "no new internal errors" n
    (Sedspec.Checker.internal_errors checker)

let test_checker_resync_restores_shadow () =
  let m, checker, d = fresh_fdc () in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:21);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check bool) "shadow clean after benign ops" true
    (Sedspec.Checker.shadow_matches_device checker = []);
  (* Mutate a decision-relevant parameter (data_pos is a Rule-2 index
     param) in the live control structure behind the checker's back. *)
  let arena = Interp.arena (Vmm.Machine.interp_of m "fdc") in
  Arena.set arena "data_pos" 77L;
  Alcotest.(check bool) "divergence detected" true
    (Sedspec.Checker.shadow_matches_device checker <> []);
  Sedspec.Checker.resync checker;
  Alcotest.(check bool) "post-resync shadow matches device" true
    (Sedspec.Checker.shadow_matches_device checker = [])

let benign_coverage checker d =
  let cov = Sedspec.Checker.coverage_create () in
  Sedspec.Checker.set_coverage checker (Some cov);
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.recalibrate d ~drive:0);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Sedspec.Checker.set_coverage checker None;
  ( Sedspec.Checker.coverage_nodes cov,
    Sedspec.Checker.coverage_edges cov )

let test_checker_reset_equals_fresh () =
  (* After arbitrary traffic (including a contained fault), reboot+reset
     must behave exactly like a just-attached checker: the same benign
     sequence walks the same nodes and edges and raises nothing. *)
  let m, checker, d = fresh_fdc () in
  let fresh_nodes, fresh_edges = benign_coverage checker d in
  Sedspec.Checker.set_fault_hook checker (Some (fun () -> failwith "boom"));
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:13);
  Alcotest.(check bool) "fault halted the machine" true (Vmm.Machine.halted m);
  (* The fuzzer's replay pool recycles a machine the same way. *)
  Vmm.Machine.reboot m ~device:"fdc";
  Sedspec.Checker.reset checker;
  Alcotest.(check int) "internal errors cleared" 0
    (Sedspec.Checker.internal_errors checker);
  Alcotest.(check int) "heals cleared" 0 (Sedspec.Checker.heals checker);
  let nodes', edges' = benign_coverage checker (Workload.Fdc_driver.create m) in
  Alcotest.(check int) "anomaly-free after reset" 0
    (List.length (Sedspec.Checker.anomalies checker));
  Alcotest.(check bool) "same node coverage as a fresh checker" true
    (fresh_nodes = nodes');
  Alcotest.(check bool) "same edge coverage as a fresh checker" true
    (fresh_edges = edges')

let test_checker_heal_budget () =
  let config = { Sedspec.Checker.default_config with heal_budget = 2 } in
  let m, checker, d = fresh_fdc ~config () in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:21);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  Alcotest.(check bool) "clean shadow heals to clean" true
    (Sedspec.Checker.heal checker = Sedspec.Checker.Heal_clean);
  let arena = Interp.arena (Vmm.Machine.interp_of m "fdc") in
  let corrupt v = Arena.set arena "data_pos" v in
  corrupt 90L;
  (match Sedspec.Checker.heal checker with
  | Sedspec.Checker.Heal_resynced n ->
    Alcotest.(check bool) "saw divergent params" true (n > 0)
  | _ -> Alcotest.fail "expected the first heal to resync");
  Alcotest.(check bool) "resync actually healed" true
    (Sedspec.Checker.shadow_matches_device checker = []);
  corrupt 91L;
  (match Sedspec.Checker.heal checker with
  | Sedspec.Checker.Heal_resynced _ -> ()
  | _ -> Alcotest.fail "expected the second heal to resync");
  corrupt 92L;
  (match Sedspec.Checker.heal checker with
  | Sedspec.Checker.Heal_exhausted n ->
    Alcotest.(check bool) "still divergent" true (n > 0)
  | _ -> Alcotest.fail "expected the third heal to be budget-exhausted");
  Alcotest.(check int) "heals capped at the budget" 2
    (Sedspec.Checker.heals checker)

let test_remedy_checkpoint_while_halted () =
  let m, checker, d = fresh_fdc () in
  let sup = Sedspec.Remedy.create m ~device:"fdc" checker in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:21);
  ignore (Workload.Fdc_driver.sense_interrupt d);
  (* Running machine: checkpoint works and logs nothing. *)
  Sedspec.Remedy.checkpoint sup;
  let log0 = List.length (Sedspec.Remedy.log sup) in
  ignore (Workload.Fdc_driver.dumpreg d);
  Alcotest.(check bool) "halted by the rare command" true
    (Vmm.Machine.halted m);
  (* Halted machine: a timer-driven checkpoint must not raise and must
     not overwrite the pre-anomaly target — it is a logged no-op. *)
  Sedspec.Remedy.checkpoint sup;
  Alcotest.(check bool) "skip was logged" true
    (List.length (Sedspec.Remedy.log sup) > log0);
  ignore (Sedspec.Remedy.tick sup);
  Alcotest.(check bool) "rolled back and resumed" false (Vmm.Machine.halted m);
  let arena = Interp.arena (Vmm.Machine.interp_of m "fdc") in
  Alcotest.(check int64) "restored the pre-anomaly checkpoint" 21L
    (Arena.get arena "track")

let test_remedy_circuit_breaker_escalates () =
  let m, checker, d = fresh_fdc () in
  let sup =
    Sedspec.Remedy.create
      ~policy_of:(fun _ -> Sedspec.Remedy.Rollback)
      ~breaker:(2, 8) m ~device:"fdc" checker
  in
  ignore (Workload.Fdc_driver.reset d);
  ignore (Sedspec.Remedy.tick sup);
  (* A fault that re-trips the checker after every restore: the first
     two rollbacks go through, the third escalates to a latched halt. *)
  for _ = 1 to 4 do
    ignore (Workload.Fdc_driver.dumpreg d);
    ignore (Sedspec.Remedy.tick sup)
  done;
  Alcotest.(check int) "breaker capped the rollbacks" 2
    (Sedspec.Remedy.rollbacks sup);
  Alcotest.(check bool) "breaker latched" true
    (Sedspec.Remedy.breaker_tripped sup);
  Alcotest.(check bool) "machine left halted" true (Vmm.Machine.halted m);
  Alcotest.(check bool) "escalation logged" true
    (List.exists
       (fun l -> string_contains l "breaker")
       (Sedspec.Remedy.log sup));
  (* Threshold validation. *)
  match
    Sedspec.Remedy.create ~breaker:(0, 5) m ~device:"fdc" checker
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "breaker with zero threshold accepted"

let test_remedy_snapshot_tracks_state () =
  (* The snapshot record must expose what previously had to be scraped
     from the log: tick/event/rollback counters, the in-window rollback
     count, breaker arming and latch, and the halt flag — as a pure read
     that never advances the supervisor. *)
  let m, checker, d = fresh_fdc () in
  let sup =
    Sedspec.Remedy.create
      ~policy_of:(fun _ -> Sedspec.Remedy.Rollback)
      ~breaker:(2, 8) m ~device:"fdc" checker
  in
  let s0 = Sedspec.Remedy.snapshot sup in
  Alcotest.(check int) "no ticks yet" 0 s0.Sedspec.Remedy.s_ticks;
  Alcotest.(check int) "no events yet" 0 s0.Sedspec.Remedy.s_events;
  Alcotest.(check (option (pair int int))) "breaker armed" (Some (2, 8))
    s0.Sedspec.Remedy.s_breaker;
  Alcotest.(check bool) "not tripped" false s0.Sedspec.Remedy.s_breaker_tripped;
  Alcotest.(check bool) "not halted" false s0.Sedspec.Remedy.s_halted;
  ignore (Workload.Fdc_driver.reset d);
  ignore (Sedspec.Remedy.tick sup);
  (* snapshot is a pure read: two in a row are identical and the tick
     counter reflects only real ticks. *)
  Alcotest.(check bool) "pure read" true
    (Sedspec.Remedy.snapshot sup = Sedspec.Remedy.snapshot sup);
  Alcotest.(check int) "one tick" 1
    (Sedspec.Remedy.snapshot sup).Sedspec.Remedy.s_ticks;
  ignore (Workload.Fdc_driver.dumpreg d);
  Alcotest.(check bool) "halted by rare command" true (Vmm.Machine.halted m);
  Alcotest.(check bool) "snapshot sees the halt" true
    (Sedspec.Remedy.snapshot sup).Sedspec.Remedy.s_halted;
  ignore (Sedspec.Remedy.tick sup);
  let s1 = Sedspec.Remedy.snapshot sup in
  Alcotest.(check int) "rollback counted" 1 s1.Sedspec.Remedy.s_rollbacks;
  Alcotest.(check int) "rollback in breaker window" 1
    s1.Sedspec.Remedy.s_rollbacks_in_window;
  Alcotest.(check int) "event recorded" 1 s1.Sedspec.Remedy.s_events;
  Alcotest.(check bool) "resumed" false s1.Sedspec.Remedy.s_halted;
  (* Re-trip until the breaker latches; the snapshot must agree with the
     accessors. *)
  for _ = 1 to 4 do
    ignore (Workload.Fdc_driver.dumpreg d);
    ignore (Sedspec.Remedy.tick sup)
  done;
  let s2 = Sedspec.Remedy.snapshot sup in
  Alcotest.(check bool) "breaker latched in snapshot" true
    s2.Sedspec.Remedy.s_breaker_tripped;
  Alcotest.(check int) "rollbacks capped" 2 s2.Sedspec.Remedy.s_rollbacks;
  Alcotest.(check bool) "left halted" true s2.Sedspec.Remedy.s_halted;
  (* Without a breaker the in-window count equals the lifetime count. *)
  let m2, checker2, d2 = fresh_fdc () in
  let sup2 = Sedspec.Remedy.create m2 ~device:"fdc" checker2 in
  ignore (Workload.Fdc_driver.reset d2);
  ignore (Sedspec.Remedy.tick sup2);
  ignore (Workload.Fdc_driver.dumpreg d2);
  ignore (Sedspec.Remedy.tick sup2);
  let s3 = Sedspec.Remedy.snapshot sup2 in
  Alcotest.(check int) "unarmed: window = lifetime" s3.Sedspec.Remedy.s_rollbacks
    s3.Sedspec.Remedy.s_rollbacks_in_window;
  Alcotest.(check (option (pair int int))) "unarmed breaker" None
    s3.Sedspec.Remedy.s_breaker

(* --- Shadow consistency property ----------------------------------------- *)

let prop_shadow_tracks_device =
  QCheck.Test.make ~name:"checker shadow matches device on benign traffic"
    ~count:4 QCheck.int64
    (fun seed ->
      Metrics.Spec_cache.training_cases := training_cases;
      List.for_all
        (fun w ->
          let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
          let m, checker =
            Metrics.Spec_cache.fresh_protected_machine w W.paper_version
          in
          let rng = Sedspec_util.Prng.create seed in
          W.soak_case ~mode:Workload.Samples.Random ~rng ~rare_prob:0.0 ~ops:4 m;
          match Sedspec.Checker.shadow_matches_device checker with
          | [] -> true
          | (name, s, d) :: _ ->
            QCheck.Test.fail_reportf "%s: %s shadow=%Ld device=%Ld" W.device_name
              name s d)
        Workload.Samples.all)

let () =
  Alcotest.run "sedspec"
    [
      ( "selection",
        [
          Alcotest.test_case "fdc matches paper Table I" `Quick
            test_selection_fdc_matches_paper_table1;
          Alcotest.test_case "static selection on all devices" `Quick
            test_selection_static_covers_all_devices;
          Alcotest.test_case "per-device security parameters" `Quick
            test_selection_other_devices;
          Alcotest.test_case "per-device index/buffer params" `Quick
            test_selection_index_params_per_device;
        ] );
      ( "logs",
        [
          Alcotest.test_case "collection counts" `Quick test_log_collection_counts;
          Alcotest.test_case "observation points are joints" `Quick
            test_observation_points_are_joints;
        ] );
      ( "es-cfg",
        [
          Alcotest.test_case "structure" `Quick test_escfg_structure;
          Alcotest.test_case "reduction removes only trivial nodes" `Quick
            test_escfg_reduction_only_trivial;
          Alcotest.test_case "dsod lifting rule" `Quick test_dsod_lifting_rule;
          Alcotest.test_case "deterministic command/table order" `Quick
            test_escfg_deterministic_order;
          Alcotest.test_case "reduce is idempotent and leaves no dangling edges"
            `Quick test_escfg_reduce_idempotent;
        ] );
      ( "datadep",
        [
          Alcotest.test_case "pcnet sync point" `Quick test_datadep_pcnet_sync_point;
          Alcotest.test_case "fdc fully substituted" `Quick
            test_datadep_fdc_fully_substituted;
          Alcotest.test_case "pcnet guest replay" `Quick test_datadep_pcnet_guest_replay;
          Alcotest.test_case "classification joins over all exprs" `Quick
            test_datadep_joins_all_exprs;
          Alcotest.test_case "flow-sensitive reaching defs" `Quick
            test_datadep_flow_sensitive;
        ] );
      ( "checker-benign",
        [
          Alcotest.test_case "zero FP on training replay (all devices)" `Slow
            test_checker_zero_fp_on_training_replay;
          Alcotest.test_case "zero FP soak without rare tail" `Slow
            test_checker_soak_zero_fp_without_rare;
          Alcotest.test_case "rare command flagged" `Quick
            test_checker_rare_command_is_flagged;
          Alcotest.test_case "protection halts / enhancement warns" `Quick
            test_checker_protection_halts_enhancement_warns;
          Alcotest.test_case "sync point deferral" `Quick test_checker_sync_point_deferral;
          Alcotest.test_case "resync after halt" `Quick test_checker_resync_after_halt;
          Alcotest.test_case "command access context" `Quick
            test_checker_command_access_context;
        ] );
      ( "persist",
        [
          Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
          Alcotest.test_case "stale allow fails" `Quick test_persist_stale_allow_fails;
          Alcotest.test_case "rejects bad names" `Quick test_persist_rejects_bad_names;
          Alcotest.test_case "atomic save roundtrip" `Quick
            test_persist_save_atomic_roundtrip;
          Alcotest.test_case "crc detects corruption" `Quick
            test_persist_crc_detects_corruption;
          Alcotest.test_case "legacy file without crc loads" `Quick
            test_persist_legacy_without_crc_loads;
          QCheck_alcotest.to_alcotest persist_roundtrip_prop;
          Alcotest.test_case "reloaded spec still detects" `Quick
            test_persisted_spec_still_detects;
          Alcotest.test_case "dot rendering" `Quick test_viz_dot_output;
          Alcotest.test_case "roundtrip on all devices" `Slow test_persist_all_devices;
          Alcotest.test_case "versioned roundtrip + legacy revision 0" `Quick
            test_persist_version_roundtrip;
        ] );
      ( "evolve",
        [
          QCheck_alcotest.to_alcotest self_diff_empty_prop;
          Alcotest.test_case "diff trained vs retrained, all devices" `Slow
            test_evolve_diff_trained_vs_retrained;
          Alcotest.test_case "diff vulnerable vs patched" `Quick
            test_evolve_diff_vulnerable_vs_patched;
        ] );
      ( "remedy",
        [
          Alcotest.test_case "severity classification" `Quick
            test_remedy_severity_classification;
          Alcotest.test_case "rollback restores state" `Quick
            test_remedy_rollback_restores_state;
          Alcotest.test_case "halt policy keeps halted" `Quick
            test_remedy_halt_policy_keeps_halted;
          Alcotest.test_case "checkpoint while halted is a logged no-op" `Quick
            test_remedy_checkpoint_while_halted;
          Alcotest.test_case "circuit breaker escalates repeat rollbacks" `Quick
            test_remedy_circuit_breaker_escalates;
          Alcotest.test_case "snapshot tracks supervisor state" `Quick
            test_remedy_snapshot_tracks_state;
        ] );
      ( "containment",
        [
          Alcotest.test_case "fail-closed halts and diagnoses" `Quick
            test_checker_containment_fail_closed;
          Alcotest.test_case "fail-open warns and recovers" `Quick
            test_checker_containment_fail_open_warn;
          Alcotest.test_case "resync restores the shadow" `Quick
            test_checker_resync_restores_shadow;
          Alcotest.test_case "reset equals a fresh checker" `Quick
            test_checker_reset_equals_fresh;
          Alcotest.test_case "heal respects its budget" `Quick
            test_checker_heal_budget;
        ] );
      ( "invariants",
        [ QCheck_alcotest.to_alcotest prop_shadow_tracks_device ] );
      ( "checker-strategies",
        [
          Alcotest.test_case "parameter check scope" `Slow test_strategy_parameter_only;
          Alcotest.test_case "indirect check scope" `Slow test_strategy_indirect_only;
          Alcotest.test_case "conditional check scope" `Slow test_strategy_conditional_only;
          Alcotest.test_case "prevention is pre-execution" `Slow
            test_prevention_is_pre_execution;
        ] );
    ]
