(* Tests for the PT simulator: packet encoding, address filtering, decoder
   fidelity (the decoded path must equal the executed path on every device)
   and the ITC-CFG construction. *)

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

let test_encoder_tnt_packing () =
  let f = Iptrace.Filter.make ~ranges:[ (0L, 0x1000L) ] in
  let enc = Iptrace.Encoder.create f in
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  for _ = 1 to 7 do
    Iptrace.Encoder.feed enc (Interp.Event.Tnt true)
  done;
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  let tnts =
    List.filter_map
      (function Iptrace.Packet.Tnt_short bits -> Some (List.length bits) | _ -> None)
      (Iptrace.Encoder.packets enc)
  in
  Alcotest.(check (list int)) "6+1 packing" [ 6; 1 ] tnts

let test_encoder_window_suppression () =
  (* A PGE outside the filter suppresses the whole window. *)
  let f = Iptrace.Filter.make ~ranges:[ (0L, 0x100L) ] in
  let enc = Iptrace.Encoder.create f in
  Iptrace.Encoder.feed enc (Interp.Event.Pge Iptrace.Filter.kernel_base);
  Iptrace.Encoder.feed enc (Interp.Event.Tnt true);
  Iptrace.Encoder.feed enc (Interp.Event.Tip 0x50L);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Alcotest.(check int) "nothing emitted" 0
    (List.length (Iptrace.Encoder.packets enc));
  (* An in-range window afterwards is captured normally. *)
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Alcotest.(check bool) "window captured" true
    (List.length (Iptrace.Encoder.packets enc) >= 3)

let test_encoder_clear () =
  let f = Iptrace.Filter.make ~ranges:[ (0L, 0x100L) ] in
  let enc = Iptrace.Encoder.create f in
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  Iptrace.Encoder.clear enc;
  Alcotest.(check int) "cleared" 0 (List.length (Iptrace.Encoder.packets enc))

(* Decoder fidelity: execute benign traffic on a device, encode, decode,
   and compare block-by-block with what actually ran. *)
let roundtrip_device (module W : Workload.Samples.DEVICE_WORKLOAD) ops_seed =
  let m = W.make_machine W.paper_version in
  let interp = Vmm.Machine.interp_of m W.device_name in
  let program = Interp.program interp in
  let enc = Iptrace.Encoder.create (Iptrace.Filter.for_program program) in
  let executed = ref [] in
  let rng = Prng.create ops_seed in
  Interp.with_hooks interp
    {
      Interp.silent_hooks with
      Interp.on_trace = Iptrace.Encoder.feed enc;
      on_block = (fun bref _ -> executed := bref :: !executed);
    }
    (fun () -> W.soak_case ~mode:Workload.Samples.Random ~rng ~rare_prob:0.05 ~ops:6 m);
  let traces = Iptrace.Decoder.decode program (Iptrace.Encoder.packets enc) in
  let decoded =
    List.concat_map (List.map (fun (s : Iptrace.Decoder.step) -> s.block)) traces
  in
  let executed = List.rev !executed in
  Alcotest.(check int)
    (W.device_name ^ " lengths")
    (List.length executed) (List.length decoded);
  List.iter2
    (fun a b ->
      if not (Program.bref_equal a b) then
        Alcotest.failf "%s: decoded %s but executed %s" W.device_name
          (Program.bref_to_string b) (Program.bref_to_string a))
    executed decoded

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

let test_itc_cfg_counts () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let interp = Vmm.Machine.interp_of m "fdc" in
  let program = Interp.program interp in
  let enc = Iptrace.Encoder.create (Iptrace.Filter.for_program program) in
  let (_ : unit -> unit) =
    Interp.add_hooks interp
      { Interp.silent_hooks with Interp.on_trace = Iptrace.Encoder.feed enc }
  in
  let trainer = W.trainer ~cases:4 in
  for case = 0 to 3 do
    trainer.Sedspec.Pipeline.run_case m case
  done;
  let traces = Iptrace.Decoder.decode program (Iptrace.Encoder.packets enc) in
  let itc = Iptrace.Itc_cfg.create program in
  List.iter (Iptrace.Itc_cfg.add_trace itc) traces;
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
  let enc = Iptrace.Encoder.create f in
  Iptrace.Encoder.feed enc (Interp.Event.Pge 0x10L);
  Iptrace.Encoder.feed enc (Interp.Event.Tnt false);
  Iptrace.Encoder.feed enc Interp.Event.Pgd;
  Alcotest.(check int) "bytes" (16 + 2 + 7 + 1 + 2) (Iptrace.Encoder.trace_bytes enc)

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
          Alcotest.test_case "clear" `Quick test_encoder_clear;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "roundtrip on all devices" `Quick test_roundtrip_all_devices;
          QCheck_alcotest.to_alcotest prop_roundtrip_random_seeds;
          Alcotest.test_case "desync detection" `Quick test_decoder_desync_detection;
        ] );
      ( "itc-cfg",
        [ Alcotest.test_case "construction counts" `Quick test_itc_cfg_counts ] );
    ]
