(* Differential test for the compiled ES-Checker: the closure-compiled
   walk (Compile.lower + Checker's compiled driver) must be bit-for-bit
   equivalent to the reference interpreted walk — same verdicts, same
   anomalies (strategy, location, detail, pre/post flag), same statistics,
   same shadow-arena bytes — across all five device workloads and the
   full attacks corpus, in both working modes. *)

module C = Sedspec.Checker

let anomaly_repr (a : C.anomaly) =
  Printf.sprintf "%s|%s|%b|%s"
    (C.strategy_to_string a.strategy)
    (match a.at with
    | Some b -> Devir.Program.bref_to_string b
    | None -> "-")
    a.pre_execution a.detail

let stats_repr (s : C.stats) =
  Printf.sprintf "interactions=%d walks_ok=%d bails=%d deferred=%d nodes_walked=%d"
    s.interactions s.walks_ok s.bails s.deferred s.nodes_walked

let shadow_repr checker =
  let b = C.shadow_snapshot checker in
  let h = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string h (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents h

(* --- Workload soak ----------------------------------------------------- *)

(* One soak transcript: everything observable about the checker after each
   benign case (with occasional rare commands so anomaly paths and the
   resync machinery are exercised too). *)
let soak_transcript device mode engine =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let config = { C.default_config with C.mode; engine } in
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine ~config w W.paper_version
  in
  let rng = Sedspec_util.Prng.create 0xC0FFEEL in
  let modes =
    [| Workload.Samples.Sequential; Workload.Samples.Random;
       Workload.Samples.Random_delay |]
  in
  let out = ref [] in
  let push s = out := s :: !out in
  for case = 0 to 5 do
    let mode = modes.(case mod Array.length modes) in
    W.soak_case ~mode ~rng ~rare_prob:0.002 ~ops:20 m;
    List.iter (fun a -> push (anomaly_repr a)) (C.drain_anomalies checker);
    List.iter (fun wmsg -> push ("warn:" ^ wmsg)) (Vmm.Machine.warnings m);
    Vmm.Machine.clear_warnings m;
    if Vmm.Machine.halted m then begin
      push (Printf.sprintf "halted after case %d" case);
      Vmm.Machine.resume m;
      C.resync checker
    end
  done;
  push (stats_repr (C.stats checker));
  push ("shadow:" ^ shadow_repr checker);
  List.rev !out

let test_workloads_differential mode () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let device = W.device_name in
      let reference = soak_transcript device mode C.Interpreted in
      let compiled = soak_transcript device mode C.Compiled in
      Alcotest.(check (list string))
        (Printf.sprintf "%s soak (%s mode)" device (C.mode_to_string mode))
        reference compiled)
    Workload.Samples.all

(* --- Attacks corpus ---------------------------------------------------- *)

let attack_transcript (attack : Attacks.Attack.t) mode engine =
  let w = Workload.Samples.find attack.device in
  let config = { C.default_config with C.mode; engine } in
  let m, checker =
    Metrics.Spec_cache.fresh_protected_machine ~config w attack.qemu_version
  in
  attack.setup m;
  let setup_anoms = List.map anomaly_repr (C.drain_anomalies checker) in
  Attacks.Attack.run_stream m attack;
  let attack_anoms = List.map anomaly_repr (C.drain_anomalies checker) in
  setup_anoms
  @ ("--attack--" :: attack_anoms)
  @ List.map (fun wmsg -> "warn:" ^ wmsg) (Vmm.Machine.warnings m)
  @ [
      Printf.sprintf "halted=%b" (Vmm.Machine.halted m);
      stats_repr (C.stats checker);
      "shadow:" ^ shadow_repr checker;
    ]

let test_attacks_differential mode () =
  List.iter
    (fun (attack : Attacks.Attack.t) ->
      let reference = attack_transcript attack mode C.Interpreted in
      let compiled = attack_transcript attack mode C.Compiled in
      Alcotest.(check (list string))
        (Printf.sprintf "%s (%s mode)" attack.cve (C.mode_to_string mode))
        reference compiled)
    Attacks.Attack.all

(* --- Compiled-form sanity ---------------------------------------------- *)

(* The lowering itself: dense ids are consistent, every observed command
   has a bitset, and compiled walks actually visit nodes. *)
let test_lowering_shape () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let built = Metrics.Spec_cache.built w W.paper_version in
  let c = Sedspec.Compile.lower built.spec in
  let n = Array.length c.Sedspec.Compile.nodes in
  Alcotest.(check int) "node count matches spec" (Sedspec.Es_cfg.node_count built.spec) n;
  let program = Sedspec.Es_cfg.program built.spec in
  Array.iteri
    (fun i cn ->
      Alcotest.(check int) "dense id" i cn.Sedspec.Compile.id;
      Alcotest.(check int) "block index" (Devir.Program.index_of program cn.bref)
        cn.index;
      Alcotest.(check bool) "no-command flag"
        (Sedspec.Es_cfg.no_cmd_allows built.spec cn.bref)
        cn.no_cmd)
    c.Sedspec.Compile.nodes;
  Alcotest.(check int) "one bitset per command"
    (List.length (Sedspec.Es_cfg.commands built.spec))
    (Array.length c.Sedspec.Compile.cmd_bits);
  Alcotest.(check bool) "some no-cmd-accessible node" true
    (Array.exists (fun cn -> cn.Sedspec.Compile.no_cmd) c.Sedspec.Compile.nodes)

let test_bench_walk_counts_nodes () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m, checker = Metrics.Spec_cache.fresh_protected_machine w W.paper_version in
  ignore (m : Vmm.Machine.t);
  let before = (C.stats checker).C.nodes_walked in
  C.bench_walk checker ~handler:"read"
    ~params:
      [ ("addr", 0x3F4L); ("offset", 4L); ("size", 1L); ("data", 0L) ];
  let after = (C.stats checker).C.nodes_walked in
  Alcotest.(check bool) "walked at least one node" true (after > before)

(* Allocation-regression guards.  Expressions over narrow state lower to
   unboxed [int] closures and switch verdicts are precomputed per case
   (DESIGN.md §4g), so a walk over narrow state allocates nothing. *)

(* The walk of a FIFO data-phase write during WRITE DATA evaluates the
   DSOD expressions that move one byte into the FIFO and advance its
   position.  It allocates nothing; a boxed value, option or closure
   reintroduced per walk or per node trips the budget. *)
let walk_word_budget = 4.0

let test_walk_allocation_budget () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m, checker = Metrics.Spec_cache.fresh_protected_machine w W.paper_version in
  let port = Int64.add Devices.Fdc.io_base 5L in
  (* WRITE DATA and its eight parameter bytes: the FIFO enters its data
     phase. *)
  List.iter
    (fun b ->
      match Vmm.Machine.io_write m ~port ~size:1 ~data:(Int64.of_int b) with
      | Vmm.Machine.Io_ok _ -> ()
      | _ -> Alcotest.fail "WRITE DATA command refused")
    [ 0x45; 0x00; 0x00; 0x00; 0x01; 0x02; 0x12; 0x1B; 0xFF ];
  let params = [ ("addr", port); ("offset", 5L); ("size", 1L); ("data", 0xA5L) ] in
  let walk () = C.bench_walk checker ~handler:"write" ~params in
  (* Warm: lazy lowering, cursor growth, hashtable resizes. *)
  for _ = 1 to 32 do
    walk ()
  done;
  let rounds = 1000 in
  let nodes0 = (C.stats checker).C.nodes_walked and w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    walk ()
  done;
  let per_walk = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool) "the walk visits nodes" true
    ((C.stats checker).C.nodes_walked - nodes0 >= rounds);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/walk within budget %.0f" per_walk
       walk_word_budget)
    true
    (per_walk <= walk_word_budget)

(* Everything one protected port-I/O interaction allocates: routing, the
   request, the walk before and after the device runs, and the device.
   A READ DATA sector is a command byte and its 8 parameter bytes, 512
   data-port reads and 7 result reads.  About 50 words per interaction
   remain, mostly the request's parameter list and the outcome; it took
   147 when every expression closure returned a boxed int64 and routing
   looked devices up by name. *)
let interaction_word_budget = 80.0

let test_interaction_allocation_budget () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m, checker = Metrics.Spec_cache.fresh_protected_machine w W.paper_version in
  let drv = Workload.Fdc_driver.create m in
  let read () =
    match Workload.Fdc_driver.read_sector drv ~drive:0 ~head:0 ~track:0 ~sect:1 with
    | Some _ -> ()
    | None -> Alcotest.fail "read_sector refused"
  in
  for _ = 1 to 4 do
    read ()
  done;
  let ia0 = (C.stats checker).C.interactions and w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    read ()
  done;
  let per_ia =
    (Gc.minor_words () -. w0)
    /. float_of_int ((C.stats checker).C.interactions - ia0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/interaction within budget %.0f" per_ia
       interaction_word_budget)
    true
    (per_ia <= interaction_word_budget)

(* --- Coverage ------------------------------------------------------------ *)

(* Each checker keeps a dense record of the nodes and edges it already put
   into its current coverage and skips the coverage's tables for them
   (DESIGN.md §4q).  These cases fail if that record outlives the coverage
   it stands for or survives [Checker.reset]. *)

let cov_repr cov =
  ( List.map Devir.Program.bref_to_string (C.coverage_nodes cov),
    List.map
      (fun (a, b) -> Devir.Program.bref_to_string a ^ " -> " ^ Devir.Program.bref_to_string b)
      (C.coverage_edges cov) )

let check_cov what (en, ee) (gn, ge) =
  Alcotest.(check (list string)) (what ^ ": nodes") en gn;
  Alcotest.(check (list string)) (what ^ ": edges") ee ge

(* Replay some of the device's training cases, in order. *)
let replay w m cases =
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let trainer = W.trainer ~cases:!Metrics.Spec_cache.training_cases in
  List.iter (fun case -> trainer.Sedspec.Pipeline.run_case m case) cases

let fresh device =
  let w = Workload.Samples.find device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m, checker = Metrics.Spec_cache.fresh_protected_machine w W.paper_version in
  (w, m, checker)

let test_coverage_engines_agree () =
  List.iter
    (fun w ->
      let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
      let record engine =
        let config = { C.default_config with C.engine } in
        let m, checker =
          Metrics.Spec_cache.fresh_protected_machine ~config w W.paper_version
        in
        let cov = C.coverage_create () in
        C.set_coverage checker (Some cov);
        replay w m (List.init !Metrics.Spec_cache.training_cases Fun.id);
        cov_repr cov
      in
      let reference = record C.Interpreted in
      Alcotest.(check bool) (W.device_name ^ ": some edges") true (snd reference <> []);
      check_cov W.device_name reference (record C.Compiled))
    Workload.Samples.all

(* Cases 0-3 walk, then the same cases again and one more: the second
   pass re-enters nodes and edges the first pass already recorded. *)
let first_pass = [ 0; 1; 2; 3 ]
let second_pass = [ 0; 1; 2; 3; 4 ]

let test_coverage_switch () =
  (* What the second pass walks, recorded by a checker that recorded
     nothing before it. *)
  let reference =
    let w, m, checker = fresh "fdc" in
    replay w m first_pass;
    let cov = C.coverage_create () in
    C.set_coverage checker (Some cov);
    replay w m second_pass;
    cov_repr cov
  in
  let w, m, checker = fresh "fdc" in
  let a = C.coverage_create () and b = C.coverage_create () in
  C.set_coverage checker (Some a);
  replay w m first_pass;
  C.set_coverage checker (Some b);
  replay w m second_pass;
  check_cov "straight from Some a to Some b" reference (cov_repr b);
  (* A reset checker records like a fresh one. *)
  let from_boot =
    let w, m, checker = fresh "fdc" in
    let cov = C.coverage_create () in
    C.set_coverage checker (Some cov);
    replay w m (first_pass @ second_pass);
    cov_repr cov
  in
  Vmm.Machine.reboot m ~device:"fdc";
  C.reset checker;
  let c = C.coverage_create () in
  C.set_coverage checker (Some c);
  replay w m (first_pass @ second_pass);
  check_cov "after reset" from_boot (cov_repr c)

(* Two checkers, here of two devices, record into one coverage: it must
   get every node and edge each of them walks, and no edge across the
   seam between them. *)
let test_coverage_shared () =
  let cases = [ 0; 1; 2 ] in
  let alone device =
    let w, m, checker = fresh device in
    let cov = C.coverage_create () in
    C.set_coverage checker (Some cov);
    replay w m cases;
    cov
  in
  let union = C.coverage_create () in
  ignore (C.coverage_absorb ~into:union (alone "fdc") : int);
  ignore (C.coverage_absorb ~into:union (alone "sdhci") : int);
  (* Interleaved case by case.  [y] first walks its cases into a private
     coverage and is then reset: a record that survived would hold all of
     them when it joins. *)
  let wx, mx, x = fresh "fdc" and wy, my, y = fresh "sdhci" in
  C.set_coverage y (Some (C.coverage_create ()));
  replay wy my cases;
  Vmm.Machine.reboot my ~device:"sdhci";
  C.reset y;
  let shared = C.coverage_create () in
  C.set_coverage x (Some shared);
  C.set_coverage y (Some shared);
  List.iter
    (fun case ->
      replay wx mx [ case ];
      replay wy my [ case ])
    cases;
  check_cov "shared coverage" (cov_repr union) (cov_repr shared)

(* With coverage on, a steady-state walk allocates exactly what it does
   with coverage off: a node or edge already recorded costs a bit probe,
   not a hashed (bref * bref) pair. *)
let test_coverage_allocation () =
  let _, m, checker = fresh "fdc" in
  let port = Int64.add Devices.Fdc.io_base 5L in
  (* READ DATA and its eight parameter bytes: the FIFO enters its data
     phase. *)
  List.iter
    (fun b ->
      match Vmm.Machine.io_write m ~port ~size:1 ~data:(Int64.of_int b) with
      | Vmm.Machine.Io_ok _ -> ()
      | _ -> Alcotest.fail "READ DATA command refused")
    [ 0x46; 0x00; 0x00; 0x00; 0x01; 0x02; 0x12; 0x1B; 0xFF ];
  let params = [ ("addr", port); ("offset", 5L); ("size", 1L); ("data", 0L) ] in
  let walks n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      C.bench_walk checker ~handler:"read" ~params
    done;
    Gc.minor_words () -. w0
  in
  let cov = C.coverage_create () in
  C.set_coverage checker (Some cov);
  ignore (walks 64 : float);
  let nodes0 = (C.stats checker).C.nodes_walked in
  let on = walks 10_000 in
  Alcotest.(check bool) "the walks visit nodes" true
    ((C.stats checker).C.nodes_walked - nodes0 >= 10_000);
  Alcotest.(check bool) "coverage recorded" true (C.coverage_edge_count cov > 0);
  C.set_coverage checker None;
  let off = walks 10_000 in
  Alcotest.(check (float 0.0)) "minor words, coverage on = off" off on

(* --- Definedness across walks ------------------------------------------- *)

(* A walk starts with no local and no parameter defined (DESIGN.md §4c,
   "Set-up cost model"): what one walk defines must read as undefined in
   the next, however the earlier walk ended.  [h] defines [x] from [a]
   only when [a] > 0 and reads it when [b] = 1; [b] = 2 takes a host
   value (a sync point).  [g] defines [i] through [j] from [a] (linked:
   the parameter check bounds a buffer index computed from it) or loads
   it from guest memory (not linked: the check's documented blind spot),
   then indexes [b] with it.  An index past [b] lands in [z], inside the
   arena. *)
let defs_layout =
  Devir.Layout.make
    Devir.
      [
        Layout.reg "y" Width.W32;
        Layout.reg "n" Width.W8;
        Layout.buf "b" 4;
        Layout.reg "z" Width.W32;
      ]

let defs =
  Devir.Dsl.(
    Devir.Program.make ~name:"defs" ~layout:defs_layout
      [
        handler "h" ~params:[ "a"; "b" ]
          [
            entry "e" [] (br (prm "a" >% c 0) "setx" "join");
            blk "setx" [ local "x" (prm "a") ] (goto "join");
            blk "join" [] (switch (prm "b") [ (1, "usex"); (2, "hv") ] "out");
            blk "usex"
              [ set "y" (lcl "x"); set "n" (add Devir.Width.W8 (lcl "x") (c 1)) ]
              (br (lcl "x" >% c 100) "big" "out");
            blk "big" [] (goto "out");
            blk "hv" [ hostv "hval" "defs_host" ] (br (lcl "hval" >% c 0) "hpos" "out");
            blk "hpos" [] (goto "out");
            exit_ "out" [];
          ];
        handler "g" ~params:[ "a"; "addr" ]
          [
            entry "ge" [] (br (prm "a" >% c 0) "gset" "gload");
            blk "gset" [ local "j" (prm "a"); local "i" (lcl "j") ] (goto "guse");
            blk "gload" [ load "i" (prm "addr") ] (goto "guse");
            blk "guse" [ setb "b" (lcl "i") (c 1) ] (goto "gout");
            exit_ "gout" [];
          ];
      ])

(* A machine with one device and no port or MMIO ranges: requests reach
   it through [Machine.inject] only. *)
let bare_machine program layout =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m
    {
      Vmm.Machine.program;
      arena = Devir.Arena.create layout;
      pmio = [];
      pmio_read = None;
      pmio_write = None;
      mmio = [];
      mmio_read = None;
      mmio_write = None;
    };
  m

let guest_index_addr = 0x1000L

let inject m handler params =
  Vmm.Machine.inject m ~device:"defs" ~handler ~params

let defs_training =
  [
    ("h", [ ("a", 1L); ("b", 1L) ]);
    ("h", [ ("a", 2L); ("b", 1L) ]);
    ("h", [ ("a", 3L); ("b", 0L) ]);
    ("h", [ ("a", 0L); ("b", 0L) ]);
    ("h", [ ("a", 4L); ("b", 2L) ]);
    ("g", [ ("a", 1L); ("addr", 0L) ]);
    ("g", [ ("a", 2L); ("addr", 0L) ]);
    ("g", [ ("a", 0L); ("addr", guest_index_addr) ]);
  ]

let defs_spec =
  lazy
    (let trainer =
       {
         Sedspec.Pipeline.cases = List.length defs_training;
         run_case =
           (fun m case ->
             Vmm.Guest_mem.write (Vmm.Machine.ram m) guest_index_addr Devir.Width.W32 3L;
             let handler, params = List.nth defs_training case in
             ignore (inject m handler params : Vmm.Machine.io_result));
       }
     in
     (Sedspec.Pipeline.build (bare_machine defs defs_layout) ~device:"defs" trainer).Sedspec.Pipeline.spec)

let io_repr = function
  | Vmm.Machine.Io_ok _ -> "ok"
  | Vmm.Machine.Io_blocked _ -> "blocked"
  | Vmm.Machine.Io_fault trap -> "trap " ^ Interp.Event.trap_to_string trap
  | Vmm.Machine.Io_no_device -> "no device"
  | Vmm.Machine.Io_vm_halted -> "vm halted"

(* Run N defines [x] (or [i]) and ends each way a walk can end; run N+1
   must find it undefined.  Every step prints the device outcome, the
   walk's tally and its anomalies. *)
let defs_steps =
  let x_undefined = ("x undefined", "h", [ ("a", 0L); ("b", 1L) ]) in
  [
    ("x defined", "h", [ ("a", 7L); ("b", 1L) ]);
    x_undefined;
    ("a unbound", "h", [ ("b", 1L) ]);
    ("anomaly", "h", [ ("a", 150L); ("b", 1L) ]);
    x_undefined;
    ("fault", "h", [ ("a", 255L); ("b", 1L) ]);
    x_undefined;
    ("bail", "h", [ ("a", 9L) ]);
    x_undefined;
    ("defer", "h", [ ("a", 9L); ("b", 2L) ]);
    x_undefined;
    ("i linked", "g", [ ("a", 2L); ("addr", 0L) ]);
    ("i from guest", "g", [ ("a", 0L); ("addr", guest_index_addr) ]);
    ("i linked past b", "g", [ ("a", 6L); ("addr", 0L) ]);
    ("i from guest", "g", [ ("a", 0L); ("addr", guest_index_addr) ]);
  ]

let defs_transcript engine =
  let spec = Lazy.force defs_spec in
  let m = bare_machine defs defs_layout in
  (* Training loaded index 3; this one lands past [b], which only the
     parameter check's blind spot lets through. *)
  Vmm.Guest_mem.write (Vmm.Machine.ram m) guest_index_addr Devir.Width.W32 6L;
  let config = { C.default_config with C.engine } in
  let checker = C.attach ~config m ~spec "defs" in
  List.map
    (fun (what, handler, params) ->
      let s = C.stats checker in
      let ok0 = s.walks_ok and bails0 = s.bails and deferred0 = s.deferred in
      let io = io_repr (inject m handler params) in
      Vmm.Machine.resume m;
      let s = C.stats checker in
      Printf.sprintf "%s: %s; ok+%d bails+%d deferred+%d%s" what io (s.walks_ok - ok0)
        (s.bails - bails0) (s.deferred - deferred0)
        (String.concat "" (List.map (fun a -> "; " ^ anomaly_repr a) (C.drain_anomalies checker))))
    defs_steps

(* Recorded, under either engine, while walks still cleared every slot
   flag and link bit at their start.  The two [i from guest] lines pin
   the link bits: a stale bit from the linked [i] before them would flag
   the guest-derived index. *)
let defs_expected =
  [
    "x defined: ok; ok+1 bails+0 deferred+0";
    "x undefined: trap undefined local x at h/usex; ok+0 bails+1 deferred+0";
    "a unbound: trap undefined request parameter a at h/e; ok+0 bails+1 deferred+0";
    "anomaly: blocked; ok+0 bails+0 deferred+0; \
     conditional-jump-check|h/usex|true|untraversed branch direction (taken)";
    "x undefined: trap undefined local x at h/usex; ok+0 bails+1 deferred+0";
    "fault: blocked; ok+0 bails+0 deferred+0; parameter-check|h/usex|true|\
     integer overflow computing n: 255 + 1 wrapped to 0 at width u8";
    "x undefined: trap undefined local x at h/usex; ok+0 bails+1 deferred+0";
    "bail: trap undefined request parameter b at h/join; ok+0 bails+1 deferred+0";
    "x undefined: trap undefined local x at h/usex; ok+0 bails+1 deferred+0";
    "defer: ok; ok+1 bails+0 deferred+1";
    "x undefined: trap undefined local x at h/usex; ok+0 bails+1 deferred+0";
    "i linked: ok; ok+1 bails+0 deferred+0";
    "i from guest: ok; ok+1 bails+0 deferred+0";
    "i linked past b: blocked; ok+0 bails+0 deferred+0; \
     parameter-check|g/guse|true|buffer overflow: b[6..7) exceeds size 4";
    "i from guest: ok; ok+1 bails+0 deferred+0";
  ]

let test_definedness_resets engine () =
  Alcotest.(check (list string)) "transcript" defs_expected (defs_transcript engine)

(* --- Commit ------------------------------------------------------------- *)

(* A walk that succeeds before the device runs is committed after it, from
   the checker's scratch shadow straight into its shadow (DESIGN.md §4c).
   A pcnet session interleaves ordinary accesses with sync-deferred link
   checks, an access whose device run traps (its RX DMA length mangled
   past the arena), an enhancement-mode warning (a CSR read training never
   made) and a bail (a register write training never made, with the
   conditional check off).  A layer around the checker's prints, after
   every [before] and every [after], the verdict, the device outcome, the
   statistics, the anomalies and a digest of the shadow. *)
let verdict_repr = function
  | Vmm.Machine.Allow -> "allow"
  | Vmm.Machine.Warn _ -> "warn"
  | Vmm.Machine.Halt _ -> "halt"

let commit_transcript engine =
  let w = Workload.Samples.find "pcnet" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let config = { C.default_config with C.mode = C.Enhancement; engine } in
  let m, checker = Metrics.Spec_cache.fresh_protected_machine ~config w W.paper_version in
  let lines = ref [] in
  let line what v =
    let anomalies = List.map anomaly_repr (C.drain_anomalies checker) in
    lines :=
      String.concat "; "
        ([ what; verdict_repr v; stats_repr (C.stats checker);
           Digest.to_hex (Digest.bytes (C.shadow_snapshot checker)) ]
        @ anomalies)
      :: !lines
  in
  let ip = Option.get (Vmm.Machine.interposer_of m "pcnet") in
  Vmm.Machine.set_interposer m "pcnet"
    {
      before =
        (fun r ->
          let v = ip.before r in
          line (r.handler ^ " before") v;
          v);
      after =
        (fun r o ->
          let v = ip.after r o in
          line (Format.asprintf "%s after %a" r.handler Interp.Event.pp_outcome o) v;
          v);
    };
  let module D = Workload.Pcnet_driver in
  let rng = Sedspec_util.Prng.create 0x5EEDL in
  let frame len = Sedspec_util.Prng.bytes rng len in
  let interp = Vmm.Machine.interp_of m "pcnet" in
  let d = D.create ~rcvrl:8 ~xmtrl:8 m in
  ignore (D.reset d : Workload.Io.result);
  ignore (D.init d ~mode:0 () : bool);
  ignore (D.start d : Workload.Io.result);
  ignore (D.link_up d : bool);
  ignore (D.transmit d [ frame 300 ] : bool);
  ignore (D.receive d (frame 200) : Workload.Io.result);
  ignore (D.rx_frame d : (int * bytes) option);
  ignore (D.link_up d : bool);
  Interp.set_response_fault interp
    (Some { Interp.no_response_fault with rf_dma_len = Some (fun _ -> 1 lsl 20) });
  ignore (D.receive d (frame 100) : Workload.Io.result);
  Interp.set_response_fault interp None;
  ignore (D.transmit d [ frame 64 ] : bool);
  ignore (D.read_csr d 88 : int);
  ignore (D.link_up d : bool);
  (* BCR20 written through the BDP: a path training never took. *)
  let bcr20 () =
    let port off = Int64.add Devices.Pcnet.io_base (Int64.of_int off) in
    ignore (Vmm.Machine.io_write m ~port:(port 0x12) ~size:2 ~data:20L : Vmm.Machine.io_result);
    ignore (Vmm.Machine.io_write m ~port:(port 0x16) ~size:2 ~data:0x1234L : Vmm.Machine.io_result)
  in
  C.set_config checker
    { config with C.strategies = [ C.Parameter_check; C.Indirect_jump_check ] };
  bcr20 ();
  C.set_config checker config;
  ignore (D.transmit d [ frame 500; frame 500 ] : bool);
  ignore (D.link_up d : bool);
  ignore (D.receive d (frame 700) : Workload.Io.result);
  ignore (D.rx_frame d : (int * bytes) option);
  ignore (D.csr0 d : int);
  D.ack_interrupts d;
  List.rev !lines

(* The transcript's MD5, recorded while [before] still saved the walked
   spans aside and [after] restored them from there. *)
let commit_digest = "c1bc0b15abbf997167957e897d1f502e"

let test_commit_engines_agree () =
  let reference = commit_transcript C.Interpreted in
  let compiled = commit_transcript C.Compiled in
  Alcotest.(check (list string)) "compiled = interpreted" reference compiled;
  Alcotest.(check string) "transcript digest" commit_digest
    (Digest.to_hex (Digest.string (String.concat "\n" compiled)))

(* A later interposer layer that halts a request skips the checker's
   [after]: the machine merges every layer's [before] verdict, and a halt
   keeps the device from running.  The checker's walk of that request
   succeeded and stays staged, so the next [before] must drop it; a walk
   that then bails has left half-written scratch state, and committing it
   would put the shadow behind the device.  [w] sets [mode] on one of two
   paths, of which training takes only [lo]; [r] branches on [mode],
   which makes it decision-relevant. *)
let flip_layout = Devir.Layout.make Devir.[ Layout.reg "mode" Width.W8 ]

let flip =
  Devir.Dsl.(
    Devir.Program.make ~name:"flip" ~layout:flip_layout
      [
        handler "w" ~params:[ "v" ]
          [
            entry "we" [] (br (prm "v" >% c 10) "hi" "lo");
            blk "lo" [ set "mode" (prm "v") ] (goto "wout");
            blk "hi" [ set "mode" (prm "v") ] (goto "wout");
            exit_ "wout" [];
          ];
        handler "r" ~params:[]
          [
            entry "re" [] (br (fld "mode" >% c 5) "rbig" "rsmall");
            blk "rbig" [] (goto "rout");
            blk "rsmall" [] (goto "rout");
            exit_ "rout" [];
          ];
      ])

let flip_training =
  [ ("w", [ ("v", 3L) ]); ("r", []); ("w", [ ("v", 7L) ]); ("r", []) ]

let flip_spec =
  lazy
    (let trainer =
       {
         Sedspec.Pipeline.cases = List.length flip_training;
         run_case =
           (fun m case ->
             let handler, params = List.nth flip_training case in
             ignore
               (Vmm.Machine.inject m ~device:"flip" ~handler ~params : Vmm.Machine.io_result));
       }
     in
     (Sedspec.Pipeline.build (bare_machine flip flip_layout) ~device:"flip" trainer)
       .Sedspec.Pipeline.spec)

let test_commit_after_later_halt engine () =
  let spec = Lazy.force flip_spec in
  let m = bare_machine flip flip_layout in
  let config = { C.default_config with C.engine } in
  let checker = C.attach ~config m ~spec "flip" in
  let held = ref false in
  let (_ : unit -> unit) =
    Vmm.Machine.add_interposer m "flip"
      {
        before = (fun _ -> if !held then Vmm.Machine.Halt "held" else Vmm.Machine.Allow);
        after = (fun _ _ -> Vmm.Machine.Allow);
      }
  in
  let step what handler params =
    let io = io_repr (Vmm.Machine.inject m ~device:"flip" ~handler ~params) in
    Vmm.Machine.resume m;
    let diverged =
      List.map
        (fun (f, s, d) -> Printf.sprintf "; %s: shadow %Ld, device %Ld" f s d)
        (C.shadow_matches_device checker)
    in
    Printf.sprintf "%s: %s; %s%s" what io (stats_repr (C.stats checker))
      (String.concat "" diverged)
  in
  let set = step "mode 7" "w" [ ("v", 7L) ] in
  held := true;
  let held_line = step "mode 3, held by the next layer" "w" [ ("v", 3L) ] in
  held := false;
  (* Off the trained path with the conditional check off: a bail. *)
  C.set_config checker
    { config with C.strategies = [ C.Parameter_check; C.Indirect_jump_check ] };
  let bail = step "mode 20, untrained" "w" [ ("v", 20L) ] in
  C.set_config checker config;
  let read = step "read" "r" [] in
  Alcotest.(check (list string))
    "transcript"
    [
      "mode 7: ok; interactions=1 walks_ok=1 bails=0 deferred=0 nodes_walked=3";
      "mode 3, held by the next layer: blocked; \
       interactions=2 walks_ok=2 bails=0 deferred=0 nodes_walked=6";
      "mode 20, untrained: ok; interactions=3 walks_ok=2 bails=1 deferred=0 nodes_walked=7";
      "read: ok; interactions=4 walks_ok=3 bails=1 deferred=0 nodes_walked=9";
    ]
    [ set; held_line; bail; read ]

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads (protection)" `Slow
            (test_workloads_differential C.Protection);
          Alcotest.test_case "workloads (enhancement)" `Slow
            (test_workloads_differential C.Enhancement);
          Alcotest.test_case "attacks (protection)" `Slow
            (test_attacks_differential C.Protection);
          Alcotest.test_case "attacks (enhancement)" `Slow
            (test_attacks_differential C.Enhancement);
        ] );
      ( "lowering",
        [
          Alcotest.test_case "shape" `Quick test_lowering_shape;
          Alcotest.test_case "bench_walk" `Quick test_bench_walk_counts_nodes;
          Alcotest.test_case "steady-state walk allocation budget" `Quick
            test_walk_allocation_budget;
          Alcotest.test_case "protected interaction allocation budget" `Quick
            test_interaction_allocation_budget;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "engines record equal coverage" `Slow
            test_coverage_engines_agree;
          Alcotest.test_case "switch coverage, then reset" `Quick test_coverage_switch;
          Alcotest.test_case "two checkers share one coverage" `Quick
            test_coverage_shared;
          Alcotest.test_case "no allocation with coverage on" `Quick
            test_coverage_allocation;
        ] );
      ( "commit",
        [
          Alcotest.test_case "engines agree after every interaction" `Quick
            test_commit_engines_agree;
          Alcotest.test_case "walk held by a later layer (compiled)" `Quick
            (test_commit_after_later_halt C.Compiled);
          Alcotest.test_case "walk held by a later layer (interpreted)" `Quick
            (test_commit_after_later_halt C.Interpreted);
        ] );
      ( "definedness",
        [
          Alcotest.test_case "compiled walk starts undefined" `Quick
            (test_definedness_resets C.Compiled);
          Alcotest.test_case "interpreted walk starts undefined" `Quick
            (test_definedness_resets C.Interpreted);
        ] );
    ]
