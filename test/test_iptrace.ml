(* Tests for the PT simulator: packet encoding, address filtering, window
   streaming, decoder fidelity (the decoded path must equal the executed
   path on every device), the ITC-CFG construction, and phase 1 decoding
   one window at a time as an equivalent of decoding the whole stream. *)

open Devir

module Prng = Sedspec_util.Prng

let test_packet_sizes () =
  Alcotest.(check int) "psb" 16 (Iptrace.Packet.encoded_size Iptrace.Packet.Psb);
  Alcotest.(check int) "tip" 7 (Iptrace.Packet.encoded_size (Iptrace.Packet.Tip 0L));
  Alcotest.(check int) "tnt" 1
    (Iptrace.Packet.encoded_size (Iptrace.Packet.Tnt_short [ true ]))

let test_filter () =
  let f = Iptrace.Filter.make ~ranges:[ (0x100L, 0x200L) ] in
  Alcotest.(check bool) "inside" true (Iptrace.Filter.contains f 0x100L);
  Alcotest.(check bool) "upper bound exclusive" false (Iptrace.Filter.contains f 0x200L);
  Alcotest.(check bool) "outside" false (Iptrace.Filter.contains f 0x99L);
  Alcotest.(check bool) "kernel excluded" false
    (Iptrace.Filter.contains f Iptrace.Filter.kernel_base)

let test_filter_for_program () =
  let p = Devices.Fdc.program ~version:(Devices.Qemu_version.v 2 3 0) in
  let f = Iptrace.Filter.for_program p in
  let lo, _ = Program.code_range p in
  Alcotest.(check bool) "covers code" true (Iptrace.Filter.contains f lo);
  Alcotest.(check bool) "covers callback value" true
    (Iptrace.Filter.contains f Devices.Fdc.irq_cb)

(* An encoder that keeps every window it closes, oldest first. *)
let window_encoder filter =
  let windows = ref [] in
  let enc =
    Iptrace.Encoder.create filter ~on_window:(fun w -> windows := w :: !windows)
  in
  (enc, fun () -> List.rev !windows)

let stream_string packets =
  String.concat " " (List.map Iptrace.Packet.to_string packets)

let test_encoder_tnt_packing () =
  let enc, windows = window_encoder (Iptrace.Filter.make ~ranges:[ (0L, 0x1000L) ]) in
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  for _ = 1 to 7 do
    Iptrace.Encoder.feed enc (Interp.Event.Tnt true)
  done;
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  let tnts =
    List.filter_map
      (function Iptrace.Packet.Tnt_short bits -> Some (List.length bits) | _ -> None)
      (List.concat (windows ()))
  in
  Alcotest.(check (list int)) "6+1 packing" [ 6; 1 ] tnts

let test_encoder_window_suppression () =
  (* A PGE outside the filter suppresses the whole window. *)
  let enc, windows = window_encoder (Iptrace.Filter.make ~ranges:[ (0L, 0x100L) ]) in
  Iptrace.Encoder.feed enc (Interp.Event.Pge Iptrace.Filter.kernel_base);
  Iptrace.Encoder.feed enc (Interp.Event.Tnt true);
  Iptrace.Encoder.feed enc (Interp.Event.Tip 0x50L);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Iptrace.Encoder.finish enc;
  Alcotest.(check int) "nothing emitted" 0 (List.length (windows ()));
  Alcotest.(check int) "no bytes" 0 (Iptrace.Encoder.trace_bytes enc);
  (* An in-range window afterwards is captured normally. *)
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Alcotest.(check string) "window captured" "PSB PSBEND TIP.PGE 10 TIP.PGD"
    (stream_string (List.concat (windows ())))

(* A trap cuts the first window short: no PGD.  Its two pending bits must
   close with it, not open the next window, whose first branch would
   otherwise consume them. *)
let test_encoder_cut_window_keeps_bits () =
  let enc, windows = window_encoder (Iptrace.Filter.make ~ranges:[ (0L, 0x1000L) ]) in
  List.iter (Iptrace.Encoder.feed enc)
    Interp.Event.[ Pge 0x10L; Tnt true; Tnt true ];
  Alcotest.(check int) "open window not delivered" 0 (List.length (windows ()));
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x20L);
  Alcotest.(check (list string)) "cut window closes at the next PGE"
    [ "PSB PSBEND TIP.PGE 10 TNT TT" ]
    (List.map stream_string (windows ()));
  List.iter (Iptrace.Encoder.feed enc) Interp.Event.[ Tnt false; Pgd ];
  Alcotest.(check string) "stream"
    "PSB PSBEND TIP.PGE 10 TNT TT PSB PSBEND TIP.PGE 20 TNT N TIP.PGD"
    (stream_string (List.concat (windows ())));
  Alcotest.(check int) "trace bytes"
    (List.fold_left (fun n p -> n + Iptrace.Packet.encoded_size p) 0
       (List.concat (windows ())))
    (Iptrace.Encoder.trace_bytes enc)

let test_encoder_finish () =
  let enc, windows = window_encoder (Iptrace.Filter.make ~ranges:[ (0L, 0x1000L) ]) in
  List.iter (Iptrace.Encoder.feed enc) Interp.Event.[ Pge 0x10L; Tnt false ];
  Iptrace.Encoder.finish enc;
  Iptrace.Encoder.finish enc;
  Alcotest.(check (list string)) "finish closes the cut window once"
    [ "PSB PSBEND TIP.PGE 10 TNT N" ]
    (List.map stream_string (windows ()))

let check_same_path what ~executed ~decoded =
  Alcotest.(check int) (what ^ " lengths") (List.length executed)
    (List.length decoded);
  List.iter2
    (fun a b ->
      if not (Program.bref_equal a b) then
        Alcotest.failf "%s: decoded %s but executed %s" what
          (Program.bref_to_string b) (Program.bref_to_string a))
    executed decoded

let blocks traces =
  List.concat_map (List.map (fun (s : Iptrace.Decoder.step) -> s.block)) traces

(* Decoder fidelity: execute benign traffic on a device, decode each window
   as the encoder closes it, and compare block-by-block with what actually
   ran. *)
let roundtrip_device (module W : Workload.Samples.DEVICE_WORKLOAD) ops_seed =
  let m = W.make_machine W.paper_version in
  let interp = Vmm.Machine.interp_of m W.device_name in
  let program = Interp.program interp in
  let traces_rev = ref [] in
  let enc =
    Iptrace.Encoder.create (Iptrace.Filter.for_program program)
      ~on_window:(fun w ->
        traces_rev := List.rev_append (Iptrace.Decoder.decode program w) !traces_rev)
  in
  let executed = ref [] in
  let rng = Prng.create ops_seed in
  Interp.with_hooks interp
    {
      Interp.silent_hooks with
      Interp.on_trace = Iptrace.Encoder.feed enc;
      on_block = (fun bref _ -> executed := bref :: !executed);
    }
    (fun () -> W.soak_case ~mode:Workload.Samples.Random ~rng ~rare_prob:0.05 ~ops:6 m);
  Iptrace.Encoder.finish enc;
  check_same_path W.device_name ~executed:(List.rev !executed)
    ~decoded:(blocks (List.rev !traces_rev))

let test_roundtrip_all_devices () =
  List.iter (fun w -> roundtrip_device w 13L) Workload.Samples.all

let prop_roundtrip_random_seeds =
  QCheck.Test.make ~name:"decode = execution for random benign traffic"
    ~count:10 QCheck.int64
    (fun seed ->
      List.iter (fun w -> roundtrip_device w seed) Workload.Samples.all;
      true)

let test_decoder_desync_detection () =
  let p = Devices.Fdc.program ~version:(Devices.Qemu_version.v 2 3 0) in
  Alcotest.(check bool) "bad preamble raises" true
    (try
       ignore (Iptrace.Decoder.decode p [ Iptrace.Packet.Tip 0L ]);
       false
     with Iptrace.Decoder.Desync _ -> true)

(* Run [trainer]'s cases on [m] with an encoder attached; return every
   window it closed, oldest first, and its byte count. *)
let training_windows m ~device (trainer : Sedspec.Pipeline.trainer) =
  let interp = Vmm.Machine.interp_of m device in
  let enc, windows =
    window_encoder (Iptrace.Filter.for_program (Interp.program interp))
  in
  Interp.with_hooks interp
    { Interp.silent_hooks with Interp.on_trace = Iptrace.Encoder.feed enc }
    (fun () ->
      for case = 0 to trainer.cases - 1 do
        trainer.run_case m case
      done);
  Iptrace.Encoder.finish enc;
  (windows (), Iptrace.Encoder.trace_bytes enc)

(* A one-handler device.  [v] > 0 divides by [d], so [d] = 0 traps with a
   division by zero; otherwise it calls through [cb], and a [cb] that no
   callback claims traps with a wild jump. *)
let tiny_layout =
  Layout.make [ Layout.reg "x" Width.W32; Layout.fn_ptr ~init:0x100L "cb" ]

let tiny =
  Dsl.(
    Program.make ~name:"tiny" ~layout:tiny_layout
      ~callbacks:
        [ (0x100L, { Program.cb_name = "cb"; action = Program.Raise_irq_line }) ]
      [
        handler "h" ~params:[ "v"; "d" ]
          [
            entry "e" [] (br (prm "v" >% c 0) "div" "call");
            blk "div" [ set "x" (div Width.W32 (c 1) (prm "d")) ] (goto "out");
            blk "call" [] (icall (fld "cb") "out");
            exit_ "out" [];
          ];
      ])

(* Inside the trace filter's code range, but no callback's value. *)
let wild_target = Int64.add (Program.code_base tiny) 8L

(* Run [tiny] once per [(v, d, cb)], encoding the trace; return the
   outcomes, the executed blocks and the closed windows. *)
let run_tiny runs =
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:tiny ~arena ~guest:Interp.null_guest () in
  let enc, windows = window_encoder (Iptrace.Filter.for_program tiny) in
  let executed = ref [] in
  let outcomes =
    Interp.with_hooks interp
      {
        Interp.silent_hooks with
        Interp.on_trace = Iptrace.Encoder.feed enc;
        on_block = (fun bref _ -> executed := bref :: !executed);
      }
      (fun () ->
        List.map
          (fun (v, d, cb) ->
            Arena.set arena "cb" cb;
            Interp.run interp ~handler:"h" ~params:[ ("v", v); ("d", d) ])
          runs)
  in
  Iptrace.Encoder.finish enc;
  (outcomes, List.rev !executed, windows ())

let desyncs program packets =
  match Iptrace.Decoder.decode program packets with
  | _ -> false
  | exception Iptrace.Decoder.Desync _ -> true

(* Only a wild jump may end a window without its PGD.  The division trap
   leaves [out] reachable by a goto, so a decoder that accepted the cut
   window would report blocks that never ran. *)
let test_decoder_trap_window_desyncs () =
  let outcomes, _, windows = run_tiny [ (1L, 0L, 0x100L); (1L, 1L, 0x100L) ] in
  (match outcomes with
  | [ Interp.Event.Trapped (Interp.Event.Div_by_zero _); Interp.Event.Done _ ] -> ()
  | _ -> Alcotest.fail "expected a division trap, then a clean run");
  match windows with
  | [ cut; whole ] ->
    Alcotest.(check bool) "cut window desyncs" true (desyncs tiny cut);
    Alcotest.(check bool) "whole stream desyncs" true
      (desyncs tiny (cut @ whole));
    Alcotest.(check bool) "next window decodes" false (desyncs tiny whole)
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws)

let test_decoder_wild_jump_window () =
  let outcomes, executed, windows =
    run_tiny [ (0L, 1L, wild_target); (0L, 1L, 0x100L) ]
  in
  (match outcomes with
  | [ Interp.Event.Trapped (Interp.Event.Wild_jump _); Interp.Event.Done _ ] -> ()
  | _ -> Alcotest.fail "expected a wild jump, then a clean run");
  Alcotest.(check int) "two windows" 2 (List.length windows);
  let traces = Iptrace.Decoder.decode tiny (List.concat windows) in
  Alcotest.(check int) "both decode" 2 (List.length traces);
  check_same_path "tiny" ~executed ~decoded:(blocks traces);
  Alcotest.(check bool) "one window at a time, the same" true
    (traces = List.concat_map (Iptrace.Decoder.decode tiny) windows)

let test_itc_cfg_counts () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let program = Interp.program (Vmm.Machine.interp_of m "fdc") in
  let windows, _ = training_windows m ~device:"fdc" (W.trainer ~cases:4) in
  let itc = Iptrace.Itc_cfg.create program in
  Iptrace.Itc_cfg.add_window itc (List.concat windows);
  Alcotest.(check bool) "blocks observed" true (Iptrace.Itc_cfg.block_count itc > 20);
  Alcotest.(check bool) "edges observed" true (Iptrace.Itc_cfg.edge_count itc > 20);
  Alcotest.(check bool) "conditionals found" true
    (Iptrace.Itc_cfg.conditional_nodes itc <> []);
  (* The irq callback target must have been connected. *)
  let icalls = Iptrace.Itc_cfg.indirect_nodes itc in
  Alcotest.(check bool) "indirect targets connected" true
    (List.exists
       (fun (n : Iptrace.Itc_cfg.node) ->
         List.mem_assoc Devices.Fdc.irq_cb n.itargets)
       icalls);
  (* Visit counts are consistent. *)
  List.iter
    (fun (n : Iptrace.Itc_cfg.node) ->
      if Iptrace.Itc_cfg.one_sided n then
        Alcotest.(check bool) "one-sided has visits" true (n.visits > 0))
    (Iptrace.Itc_cfg.conditional_nodes itc)

let test_trace_volume_reported () =
  let f = Iptrace.Filter.make ~ranges:[ (0L, 0x1000L) ] in
  let enc = Iptrace.Encoder.create f ~on_window:ignore in
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  Iptrace.Encoder.feed enc (Interp.Event.Tnt false);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Alcotest.(check int) "bytes" (16 + 2 + 7 + 1 + 2) (Iptrace.Encoder.trace_bytes enc)

(* --- Phase 1, one window at a time ------------------------------------- *)

let node_view (n : Iptrace.Itc_cfg.node) =
  ( Program.bref_to_string n.bref,
    (n.visits, n.taken, n.not_taken),
    n.itargets,
    List.map (fun (b, c) -> (Program.bref_to_string b, c)) n.succs )

(* [Pipeline.collect] decodes each window as it closes; decoding the whole
   stream in one call must build the same ITC-CFG, node for node. *)
let test_collect_matches_whole_stream () =
  List.iter
    (fun (module W : Workload.Samples.DEVICE_WORKLOAD) ->
      let trainer = W.trainer ~cases:8 in
      let p1 =
        Sedspec.Pipeline.collect
          (W.make_machine W.paper_version)
          ~device:W.device_name trainer
      in
      let m = W.make_machine W.paper_version in
      let program = Interp.program (Vmm.Machine.interp_of m W.device_name) in
      let windows, bytes = training_windows m ~device:W.device_name trainer in
      let itc = Iptrace.Itc_cfg.create program in
      Iptrace.Itc_cfg.add_window itc (List.concat windows);
      let streamed = List.map node_view (Iptrace.Itc_cfg.nodes p1.itc)
      and whole = List.map node_view (Iptrace.Itc_cfg.nodes itc) in
      Alcotest.(check int) (W.device_name ^ " nodes") (List.length whole)
        (List.length streamed);
      List.iter2
        (fun ((b, _, _, _) as w) s ->
          if w <> s then Alcotest.failf "%s: node %s differs" W.device_name b)
        whole streamed;
      Alcotest.(check int)
        (W.device_name ^ " trace bytes")
        (List.fold_left
           (List.fold_left (fun n p -> n + Iptrace.Packet.encoded_size p))
           0 windows)
        bytes;
      Alcotest.(check int) (W.device_name ^ " collect's bytes") bytes
        p1.trace_bytes)
    Workload.Samples.all

(* The stream is not held: fdc's 24 training cases encode 5.4 MB of
   packets, and holding them put about 20 M words on the major heap.  Both
   phases walk the block index and phase 2 copies no device state, so
   each allocates at most 300 minor words per interaction; with brefs
   hashed at every block and the state copied at every observation point
   they allocated 391 and 1,521.  The counts repeat exactly. *)
let test_collect_major_budget () =
  let module W = (val Workload.Samples.find "fdc") in
  let m = W.make_machine W.paper_version in
  let trainer = W.trainer ~cases:24 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let minor = Gc.minor_words () in
  let p1 = Sedspec.Pipeline.collect m ~device:"fdc" trainer in
  let collect_words = Gc.minor_words () -. minor in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check int) "trace bytes" 5_387_568 p1.trace_bytes;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words <= 1,000,000" words)
    true
    (words <= 1_000_000.);
  let minor = Gc.minor_words () in
  let built = Sedspec.Pipeline.construct m ~device:"fdc" p1 trainer in
  let construct_words = Gc.minor_words () -. minor in
  Alcotest.(check int) "interactions" 153_552 built.interactions;
  let per_interaction words = words /. float_of_int built.interactions in
  List.iter
    (fun (phase, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per interaction <= 300" phase
           (per_interaction words))
        true
        (per_interaction words <= 300.))
    [ ("collect", collect_words); ("construct", construct_words) ]

(* [tiny] on a machine of its own, driven by injection. *)
let tiny_machine () =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m
    {
      Vmm.Machine.program = tiny;
      arena = Arena.create tiny_layout;
      pmio = [];
      pmio_read = None;
      pmio_write = None;
      mmio = [];
      mmio_read = None;
      mmio_write = None;
    };
  m

let inject_tiny m ~v ~d =
  ignore
    (Vmm.Machine.inject m ~device:"tiny" ~handler:"h"
       ~params:[ ("v", v); ("d", d) ]
      : Vmm.Machine.io_result)

(* A window that does not decode fails collection from inside the training
   run, when the next window opens, or at [finish] if it was the last. *)
let test_collect_desync_escapes () =
  let m = tiny_machine () in
  let trainer runs =
    {
      Sedspec.Pipeline.cases = List.length runs;
      run_case = (fun m case -> let v, d = List.nth runs case in inject_tiny m ~v ~d);
    }
  in
  let fails runs =
    match Sedspec.Pipeline.collect m ~device:"tiny" (trainer runs) with
    | _ -> false
    | exception Iptrace.Decoder.Desync _ -> true
  in
  Alcotest.(check bool) "cut window mid-run" true (fails [ (1L, 0L); (1L, 1L) ]);
  Alcotest.(check bool) "cut window last" true (fails [ (1L, 1L); (1L, 0L) ]);
  (* The encoder's hook went with the exception: were it still attached, a
     cut window followed by another would raise here. *)
  inject_tiny m ~v:1L ~d:0L;
  inject_tiny m ~v:1L ~d:1L;
  Alcotest.(check bool) "a clean corpus still collects" false
    (fails [ (1L, 1L); (0L, 1L) ])

let () =
  Alcotest.run "iptrace"
    [
      ( "packets",
        [
          Alcotest.test_case "sizes" `Quick test_packet_sizes;
          Alcotest.test_case "volume" `Quick test_trace_volume_reported;
        ] );
      ( "filter",
        [
          Alcotest.test_case "ranges" `Quick test_filter;
          Alcotest.test_case "for_program" `Quick test_filter_for_program;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "tnt packing" `Quick test_encoder_tnt_packing;
          Alcotest.test_case "window suppression" `Quick test_encoder_window_suppression;
          Alcotest.test_case "cut window keeps its bits" `Quick
            test_encoder_cut_window_keeps_bits;
          Alcotest.test_case "finish closes a cut window" `Quick
            test_encoder_finish;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "roundtrip on all devices" `Quick test_roundtrip_all_devices;
          QCheck_alcotest.to_alcotest prop_roundtrip_random_seeds;
          Alcotest.test_case "desync detection" `Quick test_decoder_desync_detection;
          Alcotest.test_case "trap-cut window desyncs" `Quick
            test_decoder_trap_window_desyncs;
          Alcotest.test_case "wild jump, then a window" `Quick
            test_decoder_wild_jump_window;
        ] );
      ( "itc-cfg",
        [ Alcotest.test_case "construction counts" `Quick test_itc_cfg_counts ] );
      ( "collect",
        [
          Alcotest.test_case "windows = whole stream" `Quick
            test_collect_matches_whole_stream;
          Alcotest.test_case "major-heap budget" `Quick test_collect_major_budget;
          Alcotest.test_case "desync escapes collect" `Quick
            test_collect_desync_escapes;
        ] );
    ]
