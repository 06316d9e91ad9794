(* Unit and property tests for the device IR: widths, expressions,
   statements, layouts, arenas (C struct semantics), program addressing and
   validation. *)

open Devir
open Devir.Dsl

let widths = [ Width.W8; Width.W16; Width.W32; Width.W64 ]

let test_width_basics () =
  Alcotest.(check int) "bits w16" 16 (Width.bits Width.W16);
  Alcotest.(check int) "bytes w32" 4 (Width.bytes Width.W32);
  Alcotest.(check int64) "mask w8" 0xFFL (Width.mask Width.W8);
  Alcotest.(check int64) "truncate" 0x34L (Width.truncate Width.W8 0x1234L);
  Alcotest.(check int64) "sign extend" (-1L) (Width.sign_extend Width.W8 0xFFL);
  Alcotest.(check int64) "max signed w16" 32767L (Width.max_signed Width.W16);
  Alcotest.(check int64) "min signed w16" (-32768L) (Width.min_signed Width.W16)

let prop_truncate_idempotent =
  QCheck.Test.make ~name:"truncate is idempotent" ~count:500 QCheck.int64
    (fun v ->
      List.for_all
        (fun w -> Width.truncate w (Width.truncate w v) = Width.truncate w v)
        widths)

let prop_truncate_fits =
  QCheck.Test.make ~name:"truncated values fit unsigned" ~count:500 QCheck.int64
    (fun v ->
      List.for_all (fun w -> Width.fits_unsigned w (Width.truncate w v))
        [ Width.W8; Width.W16; Width.W32 ])

let prop_sign_extend_roundtrip =
  QCheck.Test.make ~name:"sign_extend/truncate roundtrip" ~count:500
    QCheck.(int_range (-128) 127)
    (fun v ->
      Width.sign_extend Width.W8 (Width.truncate Width.W8 (Int64.of_int v))
      = Int64.of_int v)

let test_expr_fields () =
  let e = (fld "a" +% bufb "buf" (fld "idx")) ==% prm "data" in
  Alcotest.(check (list string)) "fields" [ "a"; "buf"; "idx" ] (Expr.fields e);
  Alcotest.(check (list string)) "params" [ "data" ] (Expr.params e);
  Alcotest.(check (list string)) "locals" [] (Expr.locals e)

let test_expr_dedup () =
  let e = fld "a" +% fld "a" in
  Alcotest.(check (list string)) "deduplicated" [ "a" ] (Expr.fields e)

let test_stmt_classification () =
  let s = setb "buf" (fld "pos") (prm "data") in
  Alcotest.(check (list string)) "writes buf" [ "buf" ] (Stmt.fields_written s);
  Alcotest.(check (list string)) "reads pos" [ "pos" ] (Stmt.fields_read s);
  let s2 = local "tmp" (fld "a") in
  Alcotest.(check (list string)) "local written" [ "tmp" ] (Stmt.locals_written s2);
  let s3 = Stmt.Host_value { local = "hv"; key = "k" } in
  Alcotest.(check (list string)) "host value writes local" [ "hv" ]
    (Stmt.locals_written s3);
  Alcotest.(check bool) "touches state" true
    (Stmt.touches_state (fun f -> f = "buf") s);
  Alcotest.(check bool) "does not touch" false
    (Stmt.touches_state (fun f -> f = "other") s)

let test_term_successors () =
  Alcotest.(check (list string)) "branch succs" [ "t"; "f" ]
    (Term.successors (br (c 1) "t" "f"));
  Alcotest.(check (list string)) "switch succs" [ "a"; "b"; "d" ]
    (Term.successors (switch (c 0) [ (1, "a"); (2, "b") ] "d"));
  Alcotest.(check (list string)) "halt succs" [] (Term.successors halt)

let sample_layout =
  Layout.make
    [
      Layout.reg ~hw:true ~init:5L "r8" Width.W8;
      Layout.reg "r32" Width.W32;
      Layout.buf "buf" 16;
      Layout.fn_ptr ~init:0xAAL "fp";
      Layout.reg "tail" Width.W16;
    ]

let test_layout_offsets () =
  Alcotest.(check int) "r8 at 0" 0 (Layout.offset sample_layout "r8");
  Alcotest.(check int) "r32 at 1" 1 (Layout.offset sample_layout "r32");
  Alcotest.(check int) "buf at 5" 5 (Layout.offset sample_layout "buf");
  Alcotest.(check int) "fp at 21" 21 (Layout.offset sample_layout "fp");
  Alcotest.(check int) "size" 31 (Layout.size sample_layout);
  Alcotest.(check int) "buf size" 16 (Layout.buf_size sample_layout "buf")

let test_layout_field_at () =
  (match Layout.field_at sample_layout 6 with
  | Some (f, off) ->
    Alcotest.(check string) "covers buf" "buf" f.Layout.name;
    Alcotest.(check int) "inner offset" 1 off
  | None -> Alcotest.fail "no field");
  Alcotest.(check bool) "past end" true (Layout.field_at sample_layout 31 = None)

let test_layout_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Layout.make: duplicate field x")
    (fun () -> ignore (Layout.make [ Layout.reg "x" Width.W8; Layout.reg "x" Width.W8 ]))

let test_layout_zero_buf_rejected () =
  Alcotest.check_raises "empty buffer"
    (Invalid_argument "Layout.make: buffer b has size 0")
    (fun () -> ignore (Layout.make [ Layout.buf "b" 0 ]))

let test_arena_init_and_reset () =
  let a = Arena.create sample_layout in
  Alcotest.(check int64) "init value" 5L (Arena.get a "r8");
  Alcotest.(check int64) "fn ptr init" 0xAAL (Arena.get a "fp");
  Arena.set a "r8" 0x1FFL;
  Alcotest.(check int64) "truncated write" 0xFFL (Arena.get a "r8");
  Arena.reset a;
  Alcotest.(check int64) "reset restores" 5L (Arena.get a "r8")

let test_arena_neighbor_corruption () =
  (* Writing past [buf] lands in [fp] — the C struct aliasing the exploits
     rely on. *)
  let a = Arena.create sample_layout in
  for i = 0 to 7 do
    Arena.set_buf_byte a "buf" (16 + i) 0x42
  done;
  Alcotest.(check int64) "fp corrupted" 0x4242424242424242L (Arena.get a "fp")

let test_arena_escape_raises () =
  let a = Arena.create sample_layout in
  Alcotest.check_raises "escape"
    (Arena.Out_of_arena { field = "buf"; index = 26 })
    (fun () -> Arena.set_buf_byte a "buf" 26 1)

let test_arena_negative_index () =
  let a = Arena.create sample_layout in
  Arena.set a "r32" 0xDDL;
  (* buf starts at 5; index -4 is the first byte of r32. *)
  Alcotest.(check int) "reads preceding field" 0xDD (Arena.get_buf_byte a "buf" (-4))

let test_arena_snapshot_restore () =
  let a = Arena.create sample_layout in
  Arena.set a "r32" 77L;
  let snap = Arena.snapshot a in
  Arena.set a "r32" 99L;
  Arena.restore a snap;
  Alcotest.(check int64) "restored" 77L (Arena.get a "r32")

let test_arena_copy_and_spans () =
  let a = Arena.create sample_layout and b = Arena.create sample_layout in
  Arena.set a "r32" 123L;
  Arena.blit_to_buf a "buf" 0 (Bytes.of_string "hello");
  Arena.copy_into ~src:a ~dst:b;
  Alcotest.(check int64) "copied scalar" 123L (Arena.get b "r32");
  Alcotest.(check string) "copied buf" "hello"
    (Bytes.to_string (Arena.read_buf b "buf" 0 5));
  (* span copy: only r32's extent *)
  let c' = Arena.create sample_layout in
  Arena.set a "r32" 55L;
  Arena.copy_spans ~spans:[ (1, 4) ] ~src:a ~dst:c';
  Alcotest.(check int64) "span copied" 55L (Arena.get c' "r32");
  Alcotest.(check string) "buf untouched by span copy" "\000\000\000\000\000"
    (Bytes.to_string (Arena.read_buf c' "buf" 0 5));
  (* Spans copy a word at a time, then byte by byte: every extent, at
     every offset, moves exactly its own bytes, and one outside the arena
     is refused. *)
  let n = Arena.size a in
  let pattern = Bytes.init n (fun i -> Char.chr (1 + i)) in
  Arena.restore a pattern;
  for off = 0 to n do
    for len = 0 to n - off do
      let d = Arena.create sample_layout in
      Arena.restore d (Bytes.make n '\000');
      Arena.copy_spans ~spans:[ (off, len) ] ~src:a ~dst:d;
      let expected =
        Bytes.init n (fun i -> if i >= off && i < off + len then Bytes.get pattern i else '\000')
      in
      Alcotest.(check string) (Printf.sprintf "span (%d, %d)" off len)
        (Bytes.to_string expected) (Bytes.to_string (Arena.snapshot d))
    done
  done;
  List.iter
    (fun span ->
      Alcotest.check_raises "span outside the arena"
        (Invalid_argument "Arena.copy_spans: span outside the arena") (fun () ->
          Arena.copy_spans ~spans:[ span ] ~src:a ~dst:c'))
    [ (-1, 2); (n - 3, 4); (0, n + 1); (2, -1) ]

let prop_arena_scalar_roundtrip =
  QCheck.Test.make ~name:"arena scalar write/read roundtrip" ~count:300
    QCheck.int64
    (fun v ->
      let a = Arena.create sample_layout in
      Arena.set a "r32" v;
      Arena.get a "r32" = Width.truncate Width.W32 v)

let prop_arena_buf_roundtrip =
  QCheck.Test.make ~name:"arena buffer byte roundtrip" ~count:300
    QCheck.(pair (int_range 0 15) (int_range 0 255))
    (fun (i, v) ->
      let a = Arena.create sample_layout in
      Arena.set_buf_byte a "buf" i v;
      Arena.get_buf_byte a "buf" i = v)

(* Program addressing over all shipped devices. *)
let all_programs () =
  let v = Devices.Qemu_version.v in
  [
    Devices.Fdc.program ~version:(v 2 3 0);
    Devices.Fdc.program ~version:Devices.Qemu_version.latest;
    Devices.Sdhci.program ~version:(v 5 2 0);
    Devices.Sdhci.program ~version:Devices.Qemu_version.latest;
    Devices.Pcnet.program ~version:(v 2 4 0);
    Devices.Pcnet.program ~version:(v 2 6 0);
    Devices.Pcnet.program ~version:Devices.Qemu_version.latest;
    Devices.Ehci.program ~version:(v 5 1 0);
    Devices.Ehci.program ~version:Devices.Qemu_version.latest;
    Devices.Scsi.program ~version:(v 2 4 0);
    Devices.Scsi.program ~version:(v 2 6 0);
    Devices.Scsi.program ~version:Devices.Qemu_version.latest;
  ]

let test_program_addressing () =
  List.iter
    (fun p ->
      Program.iter_blocks p (fun bref _ ->
          let addr = Program.address_of p bref in
          match Program.block_at p addr with
          | Some bref' ->
            Alcotest.(check string) "roundtrip"
              (Program.bref_to_string bref)
              (Program.bref_to_string bref')
          | None -> Alcotest.fail "address not resolvable"))
    (all_programs ())

let test_program_code_range () =
  List.iter
    (fun p ->
      let lo, hi = Program.code_range p in
      Alcotest.(check bool) "range covers blocks" true
        (Int64.sub hi lo = Int64.of_int (16 * Program.block_count p)))
    (all_programs ())

let test_program_duplicate_handler () =
  let h = handler "h" ~params:[] [ entry "e" [] halt ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Program.make ~name:"x" ~layout:sample_layout [ h; h ]);
       false
     with Invalid_argument _ -> true)

let test_validate_all_devices () =
  List.iter (fun p -> Validate.check_exn p) (all_programs ())

let test_validate_catches_bad_successor () =
  let h = handler "h" ~params:[] [ entry "e" [] (goto "missing") ] in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_catches_unknown_field () =
  let h =
    handler "h" ~params:[]
      [ entry "e" [ set "nope" (c 1) ] (goto "x"); exit_ "x" [] ]
  in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_catches_buf_as_scalar () =
  let h =
    handler "h" ~params:[]
      [ entry "e" [ set "buf" (c 1) ] (goto "x"); exit_ "x" [] ]
  in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_catches_undeclared_param () =
  let h =
    handler "h" ~params:[ "addr" ]
      [ entry "e" [ set "r32" (prm "data") ] (goto "x"); exit_ "x" [] ]
  in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_catches_unassigned_local () =
  let h =
    handler "h" ~params:[]
      [ entry "e" [ set "r32" (lcl "ghost") ] (goto "x"); exit_ "x" [] ]
  in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_requires_exit () =
  let h = handler "h" ~params:[] [ entry "e" [] halt ] in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let test_validate_cmd_decision_needs_switch () =
  let h =
    handler "h" ~params:[]
      [
        entry "e" [] (goto "d");
        cmd_decision "d" [] (switch (fld "r8") [] "x");
        blk "bad" [] halt |> (fun b -> { b with Block.kind = Block.Cmd_decision });
        exit_ "x" [];
      ]
  in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  Alcotest.(check bool) "errors found" true (Validate.check p <> [])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_validate_result_ok () =
  List.iter
    (fun p ->
      match Validate.validate_result p with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (all_programs ())

let test_validate_result_names_every_block () =
  (* Three independently broken blocks: the report must name all of them,
     not stop at the first. *)
  let h =
    handler "h" ~params:[]
      [
        entry "first_bad" [] (goto "missing");
        blk "second_bad" [ set "nope" (c 1) ] (goto "x");
        blk "third_bad" [ set "r32" (lcl "ghost") ] (goto "x");
        exit_ "x" [];
      ]
  in
  let p = Program.make ~name:"multi" ~layout:sample_layout [ h ] in
  match Validate.validate_result p with
  | Ok () -> Alcotest.fail "expected errors"
  | Error msg ->
    Alcotest.(check bool) "names the program" true (contains msg "multi");
    List.iter
      (fun label ->
        Alcotest.(check bool) ("names " ^ label) true (contains msg label))
      [ "first_bad"; "second_bad"; "third_bad" ]

let test_validate_check_exn_matches_result () =
  let h = handler "h" ~params:[] [ entry "e" [] (goto "missing") ] in
  let p = Program.make ~name:"bad" ~layout:sample_layout [ h ] in
  let expected =
    match Validate.validate_result p with
    | Error msg -> msg
    | Ok () -> Alcotest.fail "expected errors"
  in
  match Validate.check_exn p with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check string) "same report" expected msg

let test_pretty_renders_all_devices () =
  List.iter
    (fun p ->
      let s = Pretty.program_to_string p in
      Alcotest.(check bool) "has struct" true
        (String.length s > 200
        && String.sub s 0 10 = "/* device:");
      (* every handler appears *)
      List.iter
        (fun (h : Program.handler) ->
          let needle = "void " ^ h.hname in
          let found =
            let n = String.length needle and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (h.hname ^ " rendered") true found)
        (Program.handlers p))
    (all_programs ())

let test_qemu_version () =
  let open Devices.Qemu_version in
  Alcotest.(check string) "to_string" "2.3.0" (to_string (of_string "2.3.0"));
  Alcotest.(check bool) "lt" true (v 2 3 0 < v 2 3 1);
  Alcotest.(check bool) "ge" true (v 5 1 1 >= v 5 1 1);
  Alcotest.(check bool) "latest newest" true (latest >= v 99 0 0)

let () =
  Alcotest.run "devir"
    [
      ( "width",
        [
          Alcotest.test_case "basics" `Quick test_width_basics;
          QCheck_alcotest.to_alcotest prop_truncate_idempotent;
          QCheck_alcotest.to_alcotest prop_truncate_fits;
          QCheck_alcotest.to_alcotest prop_sign_extend_roundtrip;
        ] );
      ( "expr",
        [
          Alcotest.test_case "fields/params/locals" `Quick test_expr_fields;
          Alcotest.test_case "dedup" `Quick test_expr_dedup;
        ] );
      ( "stmt/term",
        [
          Alcotest.test_case "classification" `Quick test_stmt_classification;
          Alcotest.test_case "successors" `Quick test_term_successors;
        ] );
      ( "layout",
        [
          Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "field_at" `Quick test_layout_field_at;
          Alcotest.test_case "duplicate rejected" `Quick test_layout_duplicate_rejected;
          Alcotest.test_case "zero buffer rejected" `Quick test_layout_zero_buf_rejected;
        ] );
      ( "arena",
        [
          Alcotest.test_case "init and reset" `Quick test_arena_init_and_reset;
          Alcotest.test_case "neighbor corruption" `Quick test_arena_neighbor_corruption;
          Alcotest.test_case "escape raises" `Quick test_arena_escape_raises;
          Alcotest.test_case "negative index aliases" `Quick test_arena_negative_index;
          Alcotest.test_case "snapshot/restore" `Quick test_arena_snapshot_restore;
          Alcotest.test_case "copy and spans" `Quick test_arena_copy_and_spans;
          QCheck_alcotest.to_alcotest prop_arena_scalar_roundtrip;
          QCheck_alcotest.to_alcotest prop_arena_buf_roundtrip;
        ] );
      ( "program",
        [
          Alcotest.test_case "address roundtrip (all devices)" `Quick test_program_addressing;
          Alcotest.test_case "code range" `Quick test_program_code_range;
          Alcotest.test_case "duplicate handler" `Quick test_program_duplicate_handler;
          Alcotest.test_case "pseudo-C rendering" `Quick test_pretty_renders_all_devices;
          Alcotest.test_case "qemu versions" `Quick test_qemu_version;
        ] );
      ( "validate",
        [
          Alcotest.test_case "all shipped devices are well-formed" `Quick test_validate_all_devices;
          Alcotest.test_case "bad successor" `Quick test_validate_catches_bad_successor;
          Alcotest.test_case "unknown field" `Quick test_validate_catches_unknown_field;
          Alcotest.test_case "buffer as scalar" `Quick test_validate_catches_buf_as_scalar;
          Alcotest.test_case "undeclared param" `Quick test_validate_catches_undeclared_param;
          Alcotest.test_case "unassigned local" `Quick test_validate_catches_unassigned_local;
          Alcotest.test_case "missing exit" `Quick test_validate_requires_exit;
          Alcotest.test_case "cmd-decision needs switch" `Quick test_validate_cmd_decision_needs_switch;
          Alcotest.test_case "validate_result ok on shipped devices" `Quick
            test_validate_result_ok;
          Alcotest.test_case "report names every offending block" `Quick
            test_validate_result_names_every_block;
          Alcotest.test_case "check_exn carries the same report" `Quick
            test_validate_check_exn_matches_result;
        ] );
    ]
