(* Tests for the expression evaluator (width-aware arithmetic, overflow
   reporting) and the block-graph interpreter (control transfers, traps,
   hooks, guards, sync points). *)

open Devir
open Devir.Dsl

(* --- Eval ----------------------------------------------------------- *)

let eval_with ?(fields = []) ?(params = []) ?(locals = []) e =
  let overflow = ref None in
  let ctx =
    {
      Interp.Eval.get_field =
        (fun n ->
          match List.assoc_opt n fields with
          | Some v -> v
          | None -> Alcotest.failf "unknown field %s" n);
      get_buf_byte = (fun _ i -> i land 0xFF);
      buf_len = (fun _ -> 16);
      get_param =
        (fun n ->
          match List.assoc_opt n params with
          | Some v -> v
          | None -> raise (Interp.Eval.Undefined_param n));
      get_local =
        (fun n ->
          match List.assoc_opt n locals with
          | Some v -> v
          | None -> raise (Interp.Eval.Undefined_local n));
      record_overflow = (fun o -> overflow := Some o);
    }
  in
  let v = Interp.Eval.eval ctx e in
  (v, !overflow)

let test_eval_arith () =
  Alcotest.(check int64) "add" 5L (fst (eval_with (c 2 +% c 3)));
  Alcotest.(check int64) "sub" 1L (fst (eval_with (c 3 -% c 2)));
  Alcotest.(check int64) "mul" 6L (fst (eval_with (c 2 *% c 3)));
  Alcotest.(check int64) "and" 4L (fst (eval_with (c 6 &% c 12)));
  Alcotest.(check int64) "or" 14L (fst (eval_with (c 6 |% c 12)));
  Alcotest.(check int64) "xor" 10L (fst (eval_with (c 6 ^% c 12)));
  Alcotest.(check int64) "shl" 8L (fst (eval_with (c 1 <<% c 3)));
  Alcotest.(check int64) "shr" 2L (fst (eval_with (c 8 >>% c 2)));
  Alcotest.(check int64) "div" 3L (fst (eval_with (div Width.W32 (c 7) (c 2))));
  Alcotest.(check int64) "rem" 1L (fst (eval_with (rem Width.W32 (c 7) (c 2))))

let test_eval_cmp () =
  let t e = Alcotest.(check int64) "true" 1L (fst (eval_with e)) in
  let f e = Alcotest.(check int64) "false" 0L (fst (eval_with e)) in
  t (c 1 ==% c 1);
  f (c 1 ==% c 2);
  t (c 1 <>% c 2);
  t (c 1 <% c 2);
  f (c 2 <% c 1);
  t (c 2 <=% c 2);
  t (c 3 >% c 2);
  t (c 3 >=% c 3);
  (* Unsigned vs signed: all-ones is max unsigned but -1 signed. *)
  t (c64 ~w:Width.W64 (-1L) >% c64 ~w:Width.W64 1L);
  t (lts (c64 ~w:Width.W64 (-1L)) (c64 ~w:Width.W64 1L));
  t (not_ (c 0));
  f (not_ (c 5))

let test_eval_overflow_add () =
  let v, ov = eval_with (add Width.W8 (c 200) (c 100)) in
  Alcotest.(check int64) "wraps" 44L v;
  Alcotest.(check bool) "overflow recorded" true (ov <> None)

let test_eval_overflow_sub () =
  let v, ov = eval_with (sub Width.W32 (c 0x40) (c 0x81)) in
  (* The SDHCI CVE-2021-3409 expression shape. *)
  Alcotest.(check int64) "wraps" 0xFFFFFFBFL v;
  Alcotest.(check bool) "underflow recorded" true (ov <> None)

let test_eval_overflow_mul () =
  let _, ov = eval_with (mul Width.W16 (c 300) (c 300)) in
  Alcotest.(check bool) "mul overflow recorded" true (ov <> None)

let test_eval_shl_overflow () =
  let _, ov = eval_with (shl Width.W8 (c 0x80) (c 1)) in
  Alcotest.(check bool) "shl overflow recorded" true (ov <> None)

let test_eval_no_false_overflow () =
  let _, ov = eval_with (c 1000 +% c 2000) in
  Alcotest.(check bool) "no overflow" true (ov = None);
  let _, ov = eval_with (sub Width.W32 (c 5) (c 5)) in
  Alcotest.(check bool) "equal sub no overflow" true (ov = None)

let test_eval_div_zero () =
  Alcotest.check_raises "div by zero" Interp.Eval.Div_by_zero (fun () ->
      ignore (eval_with (div Width.W32 (c 1) (c 0))))

let test_eval_undefined () =
  Alcotest.check_raises "undefined param" (Interp.Eval.Undefined_param "nope")
    (fun () -> ignore (eval_with (prm "nope")));
  Alcotest.check_raises "undefined local" (Interp.Eval.Undefined_local "ghost")
    (fun () -> ignore (eval_with (lcl "ghost")))

let prop_add_matches_reference =
  QCheck.Test.make ~name:"W16 add wraps like a reference" ~count:500
    QCheck.(pair (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (a, b) ->
      let v, _ =
        eval_with (add Width.W16 (c ~w:Width.W16 a) (c ~w:Width.W16 b))
      in
      Int64.to_int v = (a + b) land 0xFFFF)

let prop_cmp_matches_reference =
  QCheck.Test.make ~name:"unsigned comparisons match reference" ~count:500
    QCheck.(pair (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (a, b) ->
      let t e = fst (eval_with e) = 1L in
      t (c a <% c b) = (a < b)
      && t (c a <=% c b) = (a <= b)
      && t (c a ==% c b) = (a = b))

(* --- Interpreter ----------------------------------------------------- *)

let tiny_layout =
  Layout.make
    [
      Layout.reg "x" Width.W32;
      Layout.reg "y" Width.W32;
      Layout.fn_ptr ~init:0x100L "cb";
      Layout.buf "buf" 8;
    ]

let tiny_program
    ?(callbacks = [ (0x100L, { Program.cb_name = "cb"; action = Program.Raise_irq_line }) ])
    handlers =
  Program.make ~name:"tiny" ~layout:tiny_layout ~callbacks handlers

let run_tiny ?(params = []) ?hooks ?config program handler =
  let arena = Arena.create tiny_layout in
  let interp =
    Interp.create ?config ?hooks ~program ~arena ~guest:Interp.null_guest ()
  in
  (Interp.run interp ~handler ~params, arena, interp)

let test_interp_straightline () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [
            entry "e" [ set "x" (c 3) ] (goto "next");
            blk "next" [ set "y" (fld "x" +% c 1); respond (fld "y") ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let outcome, arena, _ = run_tiny p "h" in
  (match outcome with
  | Interp.Event.Done { response = Some 4L } -> ()
  | o ->
    Alcotest.failf "unexpected outcome %s"
      (Format.asprintf "%a" Interp.Event.pp_outcome o));
  Alcotest.(check int64) "y" 4L (Arena.get arena "y")

let test_interp_branch_directions () =
  let p =
    tiny_program
      [
        handler "h" ~params:[ "v" ]
          [
            entry "e" [] (br (prm "v" >% c 10) "big" "small");
            blk "big" [ set "x" (c 1) ] (goto "out");
            blk "small" [ set "x" (c 2) ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let _, arena, _ = run_tiny ~params:[ ("v", 50L) ] p "h" in
  Alcotest.(check int64) "taken" 1L (Arena.get arena "x");
  let _, arena, _ = run_tiny ~params:[ ("v", 5L) ] p "h" in
  Alcotest.(check int64) "not taken" 2L (Arena.get arena "x")

let test_interp_switch_default () =
  let p =
    tiny_program
      [
        handler "h" ~params:[ "v" ]
          [
            entry "e" [] (switch (prm "v") [ (1, "one") ] "other");
            blk "one" [ set "x" (c 11) ] (goto "out");
            blk "other" [ set "x" (c 99) ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let _, arena, _ = run_tiny ~params:[ ("v", 1L) ] p "h" in
  Alcotest.(check int64) "case" 11L (Arena.get arena "x");
  let _, arena, _ = run_tiny ~params:[ ("v", 7L) ] p "h" in
  Alcotest.(check int64) "default" 99L (Arena.get arena "x")

let test_interp_icall_and_wild_jump () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [ entry "e" [] (icall (fld "cb") "out"); exit_ "out" [] ];
      ]
  in
  let irqs = ref 0 in
  let hooks =
    { Interp.silent_hooks with Interp.on_irq = (fun up -> if up then incr irqs) }
  in
  let outcome, _, _ = run_tiny ~hooks p "h" in
  Alcotest.(check bool) "done" true (outcome = Interp.Event.Done { response = None });
  Alcotest.(check int) "irq raised" 1 !irqs;
  let arena = Arena.create tiny_layout in
  Arena.set arena "cb" 0xBADL;
  let interp = Interp.create ~program:p ~arena ~guest:Interp.null_guest () in
  match Interp.run interp ~handler:"h" ~params:[] with
  | Interp.Event.Trapped (Interp.Event.Wild_jump { target = 0xBADL; _ }) -> ()
  | o ->
    Alcotest.failf "expected wild jump, got %s"
      (Format.asprintf "%a" Interp.Event.pp_outcome o)

let test_interp_icall_guard () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [ entry "e" [] (icall (fld "cb") "out"); exit_ "out" [] ];
      ]
  in
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:p ~arena ~guest:Interp.null_guest () in
  Interp.set_icall_guard interp (Some (fun _ _ -> false));
  (match Interp.run interp ~handler:"h" ~params:[] with
  | Interp.Event.Trapped (Interp.Event.Icall_blocked { target = 0x100L; _ }) -> ()
  | o ->
    Alcotest.failf "expected guard block, got %s"
      (Format.asprintf "%a" Interp.Event.pp_outcome o));
  Interp.clear_icall_guard interp;
  Alcotest.(check bool) "guard cleared" true
    (Interp.run interp ~handler:"h" ~params:[] = Interp.Event.Done { response = None })

let test_interp_step_limit () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [ entry "e" [] (goto "spin"); blk "spin" [] (goto "spin"); exit_ "out" [] ];
      ]
  in
  let outcome, _, _ =
    run_tiny ~config:{ Interp.step_limit = 100; depth_limit = 4 } p "h"
  in
  Alcotest.(check bool) "hangs" true
    (outcome = Interp.Event.Trapped Interp.Event.Step_limit)

let test_interp_depth_limit () =
  let p =
    tiny_program
      ~callbacks:
        [ (0x100L, { Program.cb_name = "rec"; action = Program.Run_handler "h" }) ]
      [
        handler "h" ~params:[]
          [ entry "e" [] (icall (fld "cb") "out"); exit_ "out" [] ];
      ]
  in
  let outcome, _, _ = run_tiny p "h" in
  Alcotest.(check bool) "depth limit" true
    (outcome = Interp.Event.Trapped Interp.Event.Depth_limit)

let test_interp_chained_handler () =
  let p =
    tiny_program
      ~callbacks:
        [ (0x100L, { Program.cb_name = "sub"; action = Program.Run_handler "sub" }) ]
      [
        handler "h" ~params:[]
          [
            entry "e" [ set "x" (c 1) ] (icall (fld "cb") "after");
            blk "after" [ set "y" (fld "y" +% c 10) ] (goto "out");
            exit_ "out" [];
          ];
        handler "sub" ~params:[]
          [ entry "se" [ set "y" (c 5) ] (goto "sout"); exit_ "sout" [] ];
      ]
  in
  let _, arena, _ = run_tiny p "h" in
  Alcotest.(check int64) "chain ran before continuation" 15L (Arena.get arena "y")

let test_interp_oob_hook_and_trap () =
  let p =
    tiny_program
      [
        handler "h" ~params:[ "i" ]
          [
            entry "e" [ setb "buf" (prm "i") (c 0xAB) ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let oob = ref [] in
  let hooks =
    { Interp.silent_hooks with Interp.on_oob = (fun e -> oob := e :: !oob) }
  in
  (* buf is the last field, so index 9 escapes the whole structure. *)
  let outcome, _, _ = run_tiny ~hooks ~params:[ ("i", 9L) ] p "h" in
  Alcotest.(check bool) "trap on escape" true
    (match outcome with
    | Interp.Event.Trapped (Interp.Event.Out_of_arena _) -> true
    | _ -> false);
  Alcotest.(check int) "oob event fired" 1 (List.length !oob)

let test_interp_host_values () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [
            entry "e" [ hostv "hv" "link"; set "x" (lcl "hv") ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:p ~arena ~guest:Interp.null_guest () in
  Interp.set_host_values interp (fun key -> if key = "link" then 7L else 0L);
  ignore (Interp.run interp ~handler:"h" ~params:[]);
  Alcotest.(check int64) "host value loaded" 7L (Arena.get arena "x")

let test_interp_sync_points () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [
            entry "e" [ local "t" (c 42); set "x" (lcl "t") ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:p ~arena ~guest:Interp.null_guest () in
  let synced = ref [] in
  Interp.set_sync_points interp
    [ ({ Program.handler = "h"; label = "e" }, [ "t" ]) ]
    ~on_sync:(fun _ values -> synced := values @ !synced);
  ignore (Interp.run interp ~handler:"h" ~params:[]);
  Alcotest.(check (list (pair string int64))) "synced" [ ("t", 42L) ] !synced

let test_interp_observation () =
  let p =
    tiny_program
      [
        handler "h" ~params:[ "v" ]
          [
            entry "e" [] (br (prm "v" >% c 0) "a" "b");
            blk "a" [ set "x" (c 1) ] (goto "out");
            blk "b" [ set "x" (c 2) ] (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let arena = Arena.create tiny_layout in
  let entries = ref [] in
  let hooks =
    { Interp.silent_hooks with Interp.on_observe = (fun e -> entries := e :: !entries) }
  in
  let interp = Interp.create ~hooks ~program:p ~arena ~guest:Interp.null_guest () in
  Interp.set_observation interp
    ~points:[ { Program.handler = "h"; label = "e" } ]
    ~state_params:[ "x" ];
  ignore (Interp.run interp ~handler:"h" ~params:[ ("v", 1L) ]);
  match !entries with
  | [ e ] ->
    Alcotest.(check bool) "taken outcome" true
      (e.Interp.Event.outcome = Interp.Event.O_taken);
    Alcotest.(check (list (pair string int64))) "state" [ ("x", 0L) ]
      e.Interp.Event.state
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let test_guest_memory_dma () =
  let p =
    tiny_program
      [
        handler "h" ~params:[ "addr" ]
          [
            entry "e"
              [
                dma_in ~buf:"buf" ~buf_off:(c 0) ~addr:(prm "addr") ~len:(c 4);
                Stmt.Read_guest { local = "g"; addr = prm "addr"; width = Width.W32 };
                set "x" (lcl "g");
              ]
              (goto "out");
            exit_ "out" [];
          ];
      ]
  in
  let mem = Bytes.make 64 '\000' in
  Bytes.set mem 8 '\x78';
  Bytes.set mem 9 '\x56';
  Bytes.set mem 10 '\x34';
  Bytes.set mem 11 '\x12';
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:p ~arena ~guest:(Interp.bytes_guest mem) () in
  ignore (Interp.run interp ~handler:"h" ~params:[ ("addr", 8L) ]);
  Alcotest.(check int64) "little-endian load" 0x12345678L (Arena.get arena "x");
  Alcotest.(check int) "dma byte" 0x78 (Arena.get_buf_byte arena "buf" 0)

(* [bytes_guest] range-tests the whole 64-bit address: with bit 63 set
   it is out of range, not an alias of the byte below it. *)
let test_bytes_guest_bit63 () =
  let mem = Bytes.make 16 '\x11' in
  let g = Interp.bytes_guest mem in
  let alias off = Int64.logor Int64.min_int (Int64.of_int off) in
  Alcotest.(check int) "read" 0 (g.read_byte (alias 5));
  g.write_byte (alias 6) 0xFF;
  Alcotest.(check string) "write dropped" (String.make 16 '\x11') (Bytes.to_string mem)

(* --- Lowered paths ----------------------------------------------------- *)

(* [a] overflows into [n]; [tail] is the last field, so running past it
   leaves the structure. *)
let dma_layout =
  Layout.make [ Layout.buf "a" 4; Layout.reg "n" Width.W32; Layout.buf "tail" 4 ]

let dma_program stmts =
  Program.make ~name:"dma" ~layout:dma_layout
    [ handler "h" ~params:[] [ entry "e" stmts (goto "out"); exit_ "out" [] ] ]

(* Run [stmts] once over a fresh arena and a 16-byte guest memory holding
   0x10, 0x11, ...; returns the outcome, the arena, the guest memory and
   the on_oob events in order. *)
let run_dma ?(arena_init = fun _ -> ()) stmts =
  let arena = Arena.create dma_layout in
  arena_init arena;
  let mem = Bytes.init 16 (fun i -> Char.chr (0x10 + i)) in
  let oob = ref [] in
  let hooks =
    { Interp.silent_hooks with Interp.on_oob = (fun e -> oob := e :: !oob) }
  in
  let interp =
    Interp.create ~hooks ~program:(dma_program stmts) ~arena
      ~guest:(Interp.bytes_guest mem) ()
  in
  let outcome = Interp.run interp ~handler:"h" ~params:[] in
  (outcome, arena, mem, List.rev !oob)

let oob_repr (e : Interp.Event.oob_event) =
  Printf.sprintf "%s %s[%d] %s"
    (Program.bref_to_string e.oob_block)
    e.oob_buf e.oob_index
    (if e.oob_write then "write" else "read")

let check_oob what expected events =
  Alcotest.(check (list string)) what expected (List.map oob_repr events)

let check_done what outcome =
  Alcotest.(check bool) what true (outcome = Interp.Event.Done { response = None })

let check_escape what ~field ~index outcome =
  match outcome with
  | Interp.Event.Trapped (Interp.Event.Out_of_arena { block; field = f; index = i })
    ->
    Alcotest.(check string) (what ^ ": block") "h/e" (Program.bref_to_string block);
    Alcotest.(check (pair string int)) (what ^ ": field, index") (field, index) (f, i)
  | o ->
    Alcotest.failf "%s: expected an arena escape, got %s" what
      (Format.asprintf "%a" Interp.Event.pp_outcome o)

let test_dma_in_overflow () =
  let outcome, arena, _, oob =
    run_dma [ dma_in ~buf:"a" ~buf_off:(c 0) ~addr:(c 0) ~len:(c 8) ]
  in
  check_done "copy completes" outcome;
  check_oob "one event per escaping byte"
    (List.init 4 (fun i -> Printf.sprintf "h/e a[%d] write" (4 + i)))
    oob;
  Alcotest.(check int64) "neighbour overwritten" 0x17161514L (Arena.get arena "n");
  let outcome, arena, _, oob =
    run_dma [ dma_in ~buf:"tail" ~buf_off:(c 2) ~addr:(c 0) ~len:(c 4) ]
  in
  check_escape "past the arena" ~field:"tail" ~index:4 outcome;
  check_oob "the escaping byte fires first" [ "h/e tail[4] write" ] oob;
  Alcotest.(check (list int)) "earlier bytes moved" [ 0; 0; 0x10; 0x11 ]
    (List.init 4 (fun i -> Arena.get_buf_byte arena "tail" i))

let test_dma_out_overflow () =
  let arena_init arena = Arena.set arena "n" 0xA3A2A1A0L in
  let outcome, _, mem, oob =
    run_dma ~arena_init [ dma_out ~buf:"a" ~buf_off:(c 0) ~addr:(c 0) ~len:(c 8) ]
  in
  check_done "copy completes" outcome;
  check_oob "one event per escaping byte"
    (List.init 4 (fun i -> Printf.sprintf "h/e a[%d] read" (4 + i)))
    oob;
  Alcotest.(check string) "neighbour's bytes reach the guest"
    "\000\000\000\000\xa0\xa1\xa2\xa3" (Bytes.sub_string mem 0 8);
  let arena_init arena = Arena.blit_to_buf arena "tail" 0 (Bytes.of_string "wxyz") in
  let outcome, _, mem, oob =
    run_dma ~arena_init [ dma_out ~buf:"tail" ~buf_off:(c 2) ~addr:(c 0) ~len:(c 4) ]
  in
  check_escape "past the arena" ~field:"tail" ~index:4 outcome;
  check_oob "the escaping byte fires first" [ "h/e tail[4] read" ] oob;
  Alcotest.(check string) "earlier bytes moved" "yz\x12\x13" (Bytes.sub_string mem 0 4)

let test_fill_overflow () =
  let outcome, arena, _, oob =
    run_dma [ fill "a" ~off:(c 2) ~len:(c 4) (c 0xEE) ]
  in
  check_done "fill completes" outcome;
  check_oob "one event per escaping byte" [ "h/e a[4] write"; "h/e a[5] write" ] oob;
  Alcotest.(check int64) "neighbour overwritten" 0xEEEEL (Arena.get arena "n");
  let outcome, arena, _, oob =
    run_dma [ fill "tail" ~off:(c 1) ~len:(c 9) (c 0xEE) ]
  in
  check_escape "past the arena" ~field:"tail" ~index:4 outcome;
  check_oob "the escaping byte fires first" [ "h/e tail[4] write" ] oob;
  Alcotest.(check (list int)) "earlier bytes moved" [ 0; 0xEE; 0xEE; 0xEE ]
    (List.init 4 (fun i -> Arena.get_buf_byte arena "tail" i))

(* Everything installed after [create] takes effect on the next run, and
   clearing it stops its events. *)
let test_late_installation () =
  let p =
    tiny_program
      [
        handler "h" ~params:[]
          [
            entry "e" [ local "t" (c 42); set "x" (lcl "t") ] (icall (fld "cb") "out");
            exit_ "out" [];
          ];
      ]
  in
  let arena = Arena.create tiny_layout in
  let interp = Interp.create ~program:p ~arena ~guest:Interp.null_guest () in
  let events = ref [] in
  let note s = events := s :: !events in
  let run () =
    events := [];
    ignore (Interp.run interp ~handler:"h" ~params:[]);
    List.rev !events
  in
  Alcotest.(check (list string)) "silent at create" [] (run ());
  Interp.set_hooks interp
    {
      Interp.on_trace = (fun e -> note (Format.asprintf "trace %a" Interp.Event.pp_trace_event e));
      on_block = (fun b _ -> note ("block " ^ Program.bref_to_string b));
      on_observe = (fun e -> note (Format.asprintf "observe %a" Interp.Event.pp_observe_entry e));
      on_oob = (fun e -> note ("oob " ^ oob_repr e));
      on_irq = (fun up -> note (Printf.sprintf "irq %b" up));
      on_overflow = (fun _ -> note "overflow");
      on_response = (fun r -> note (Format.asprintf "response %a" Interp.Event.pp_response_event r));
    };
  let hooked =
    [
      "trace PGE 400000"; "block h/e"; "trace TIP 100"; "irq true";
      "response irq raise"; "block h/out"; "trace PGD";
    ]
  in
  Alcotest.(check (list string)) "hooks" hooked (run ());
  Interp.set_observation interp
    ~points:[ { Program.handler = "h"; label = "e" }; { Program.handler = "h"; label = "nowhere" } ]
    ~state_params:[ "x" ];
  Interp.set_sync_points interp
    [ ({ Program.handler = "h"; label = "e" }, [ "t"; "unset" ]) ]
    ~on_sync:(fun b values ->
      note
        (Printf.sprintf "sync %s %s" (Program.bref_to_string b)
           (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) values))));
  Alcotest.(check (list string)) "observation and sync points"
    [
      "trace PGE 400000"; "block h/e"; "sync h/e t=42"; "trace TIP 100";
      "observe h/e [entry] icall 100 {x=42}"; "irq true"; "response irq raise";
      "block h/out"; "trace PGD";
    ]
    (run ());
  Interp.clear_observation interp;
  Interp.set_sync_points interp [] ~on_sync:(fun _ _ -> note "stale sync");
  Alcotest.(check (list string)) "cleared" hooked (run ());
  Interp.set_hooks interp Interp.silent_hooks;
  Alcotest.(check (list string)) "silent again" [] (run ())

(* Names the program fixes are resolved when the interpreter is built:
   one that does not resolve fails [create], naming its block.  The
   request's handler arrives at run time and keeps its run-time error. *)
let test_create_fails_closed () =
  let bad stmts term =
    tiny_program [ handler "h" ~params:[] [ entry "e" stmts term; exit_ "out" [] ] ]
  in
  let create p =
    ignore (Interp.create ~program:p ~arena:(Arena.create tiny_layout) ~guest:Interp.null_guest ())
  in
  List.iter
    (fun (what, p, msg) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () -> create p))
    [
      ( "unknown field", bad [ set "nope" (c 1) ] (goto "out"),
        "Interp.create: h/e: unknown field nope" );
      ( "buffer as scalar", bad [ set "x" (fld "buf") ] (goto "out"),
        "Interp.create: h/e: field buf is a buffer" );
      ( "scalar as buffer", bad [ setb "x" (c 0) (c 1) ] (goto "out"),
        "Interp.create: h/e: field x is not a buffer" );
      ("unknown label", bad [] (goto "gone"), "Interp.create: h/e: no block gone");
    ];
  Alcotest.check_raises "unknown callback handler"
    (Invalid_argument "Interp.create: callback cb runs unknown handler ghost")
    (fun () ->
      create
        (tiny_program
           ~callbacks:[ (0x100L, { Program.cb_name = "cb"; action = Program.Run_handler "ghost" }) ]
           [ handler "h" ~params:[] [ entry "e" [] (goto "out"); exit_ "out" [] ] ]));
  let _, _, interp =
    run_tiny (tiny_program [ handler "h" ~params:[] [ entry "e" [] (goto "out"); exit_ "out" [] ] ]) "h"
  in
  Alcotest.check_raises "unknown request handler"
    (Invalid_argument "Interp.run: no handler ghost") (fun () ->
      ignore (Interp.run interp ~handler:"ghost" ~params:[]))

(* Allocation-regression guard for the lowered interpreter.  A data-port
   read on an idle fdc walks five blocks; what it still allocates is a
   fixed residue (int64 boxes from field loads, the outcome record) of 12
   minor words on the reference toolchain.  The budget sits 4x above it.
   The tree-walking interpreter this replaced built an eval context and a
   block reference and hashed names in every block: 442 words per read. *)
let read_word_budget = 48.0

let test_read_allocation_budget () =
  let w = Workload.Samples.find "fdc" in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine W.paper_version in
  let interp = Vmm.Machine.interp_of m W.device_name in
  let params = [ ("addr", 0x3F5L); ("offset", 5L); ("size", 1L); ("data", 0L) ] in
  let read () = ignore (Interp.run interp ~handler:"read" ~params : Interp.Event.outcome) in
  for _ = 1 to 32 do
    read ()
  done;
  let rounds = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    read ()
  done;
  let per_read = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/read within budget %.0f" per_read
       read_word_budget)
    true
    (per_read < read_word_budget)

(* --- Pinned behaviour on the shipped devices --------------------------- *)

(* Every observable effect of [Interp.run] on the six shipped devices,
   folded into one MD5 per device.  Each device runs unprotected at its
   paper version for four training cases, then every catalogue attack
   against it runs on a fresh machine at the attack's vulnerable version.
   All seven hooks record, observation points sit at
   [Ds_log.observation_points] over every scalar field, sync points sit
   on every block that loads a host value, and the interposer's [after]
   records each request with its outcome and the resulting control
   structure.  A change to the interpreter's internals must leave every
   digest as it is. *)

type pin = { buf : Buffer.t; mutable digest : Digest.t }

let pin_flush p =
  p.digest <- Digest.string (p.digest ^ Buffer.contents p.buf);
  Buffer.clear p.buf

let pin_str p s =
  Buffer.add_string p.buf s;
  Buffer.add_char p.buf '\000'

let pin_int p i = Buffer.add_int64_le p.buf (Int64.of_int i)
let pin_i64 p v = Buffer.add_int64_le p.buf v
let pin_bool p b = Buffer.add_char p.buf (if b then '1' else '0')
let pin_bref p (b : Program.bref) = pin_str p b.handler; pin_str p b.label

let pin_event p tag =
  if Buffer.length p.buf > 1 lsl 16 then pin_flush p;
  Buffer.add_char p.buf tag

let pin_outcome p = function
  | Interp.Event.O_goto l -> pin_str p ("goto " ^ l)
  | Interp.Event.O_taken -> pin_str p "taken"
  | Interp.Event.O_not_taken -> pin_str p "not-taken"
  | Interp.Event.O_case (v, l) -> pin_str p ("case " ^ l); pin_i64 p v
  | Interp.Event.O_icall v -> pin_str p "icall"; pin_i64 p v
  | Interp.Event.O_halt -> pin_str p "halt"

let pin_response p = function
  | Interp.Event.R_read_return v -> pin_str p "read"; pin_i64 p v
  | Interp.Event.R_dma_out { addr; len } ->
    pin_str p "dma-out"; pin_i64 p addr; pin_int p len
  | Interp.Event.R_store { addr; value; width } ->
    pin_str p "store"; pin_i64 p addr; pin_i64 p value;
    pin_str p (Width.to_string width)
  | Interp.Event.R_irq up -> pin_str p "irq"; pin_bool p up

let pin_instrument p m ~device =
  let interp = Vmm.Machine.interp_of m device in
  let program = Interp.program interp in
  let arena = Interp.arena interp in
  let saved = Interp.hooks interp in
  Interp.set_hooks interp
    {
      Interp.on_trace =
        (fun ev ->
          (match ev with
          | Interp.Event.Pge a -> pin_event p 'P'; pin_i64 p a
          | Interp.Event.Tnt b -> pin_event p 'T'; pin_bool p b
          | Interp.Event.Tip a -> pin_event p 'I'; pin_i64 p a
          | Interp.Event.Pgd -> pin_event p 'D');
          saved.Interp.on_trace ev);
      on_block =
        (fun bref kind ->
          pin_event p 'B';
          pin_bref p bref;
          pin_str p (Block.kind_to_string kind);
          saved.Interp.on_block bref kind);
      on_observe =
        (fun e ->
          let b = Program.find_block program e.Interp.Event.block in
          if not (e.Interp.Event.stmts = b.Block.stmts && e.Interp.Event.term = b.Block.term)
          then Alcotest.failf "observe entry at %s carries foreign code"
              (Program.bref_to_string e.Interp.Event.block);
          pin_event p 'O';
          pin_bref p e.Interp.Event.block;
          pin_str p (Block.kind_to_string e.Interp.Event.kind);
          List.iter (fun (n, v) -> pin_str p n; pin_i64 p v) e.Interp.Event.state;
          pin_outcome p e.Interp.Event.outcome;
          (match e.Interp.Event.cmd with
          | Some v -> pin_bool p true; pin_i64 p v
          | None -> pin_bool p false);
          saved.Interp.on_observe e);
      on_oob =
        (fun e ->
          pin_event p 'X';
          pin_bref p e.Interp.Event.oob_block;
          pin_str p e.Interp.Event.oob_buf;
          pin_int p e.Interp.Event.oob_index;
          pin_bool p e.Interp.Event.oob_write;
          saved.Interp.on_oob e);
      on_irq =
        (fun up ->
          pin_event p 'Q';
          pin_bool p up;
          saved.Interp.on_irq up);
      on_overflow =
        (fun o ->
          pin_event p 'V';
          pin_str p (Format.asprintf "%a" Interp.Eval.pp_overflow o);
          saved.Interp.on_overflow o);
      on_response =
        (fun r ->
          pin_event p 'R';
          pin_response p r;
          saved.Interp.on_response r);
    };
  let scalars =
    List.filter_map
      (fun (f : Layout.field) ->
        match f.kind with Layout.Buf _ -> None | _ -> Some f.name)
      (Layout.fields (Program.layout program))
  in
  Interp.set_observation interp
    ~points:(Sedspec.Ds_log.observation_points program)
    ~state_params:scalars;
  let host_blocks = ref [] in
  Program.iter_blocks program (fun bref b ->
      if List.exists (function Stmt.Host_value _ -> true | _ -> false) b.Block.stmts
      then
        host_blocks :=
          (bref, List.concat_map Stmt.locals_written b.Block.stmts) :: !host_blocks);
  Interp.set_sync_points interp (List.rev !host_blocks) ~on_sync:(fun bref values ->
      pin_event p 'S';
      pin_bref p bref;
      List.iter (fun (n, v) -> pin_str p n; pin_i64 p v) values);
  Vmm.Machine.set_interposer m device
    {
      Vmm.Machine.before = (fun _ -> Vmm.Machine.Allow);
      after =
        (fun req outcome ->
          pin_event p 'A';
          pin_str p req.Vmm.Machine.handler;
          List.iter (fun (n, v) -> pin_str p n; pin_i64 p v) req.Vmm.Machine.params;
          (match outcome with
          | Interp.Event.Done { response = Some v } -> pin_str p "done"; pin_i64 p v
          | Interp.Event.Done { response = None } -> pin_str p "done"
          | Interp.Event.Trapped trap -> pin_str p (Interp.Event.trap_to_string trap));
          Buffer.add_bytes p.buf (Arena.snapshot arena);
          Vmm.Machine.Allow);
    }

let pin_ram p m =
  pin_event p 'M';
  pin_str p (Digest.bytes (Vmm.Guest_mem.snapshot (Vmm.Machine.ram m)))

let pin_device (module W : Workload.Samples.DEVICE_WORKLOAD) =
  let p = { buf = Buffer.create (1 lsl 17); digest = "" } in
  let m = W.make_machine W.paper_version in
  pin_instrument p m ~device:W.device_name;
  let trainer = W.trainer ~cases:4 in
  for case = 0 to 3 do
    trainer.Sedspec.Pipeline.run_case m case
  done;
  pin_ram p m;
  List.iter
    (fun (a : Attacks.Attack.t) ->
      if a.device = W.device_name then begin
        pin_event p 'C';
        pin_str p a.cve;
        let m = W.make_machine a.qemu_version in
        pin_instrument p m ~device:W.device_name;
        a.setup m;
        (* An attack stops with [Exit] once the device stops answering. *)
        (try a.run m with Exit -> pin_event p 'E');
        pin_ram p m
      end)
    Attacks.Attack.all;
  pin_flush p;
  Digest.to_hex p.digest

let pinned =
  [
    ("fdc", "64064ef10e1aa97673cd7e2e6a14c6be");
    ("ehci", "35873f077e1b02ef910b14aa882ff2c2");
    ("pcnet", "d8de7945f7d2cce664c42fcfcaada83c");
    ("sdhci", "4b4ac3cdab9b8b3be8bd8059501b1bcd");
    ("scsi", "d79c0c18f2ad59f23dd91ca877d2c213");
    ("virtio", "769650ac43d62f56cad8af09fdee9e7d");
  ]

let pin_cases =
  List.map
    (fun (device, want) ->
      Alcotest.test_case device `Quick (fun () ->
          Alcotest.(check string)
            (device ^ " interpreter digest")
            want
            (pin_device (Workload.Samples.find device))))
    pinned

let () =
  Alcotest.run "interp"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "comparisons" `Quick test_eval_cmp;
          Alcotest.test_case "add overflow" `Quick test_eval_overflow_add;
          Alcotest.test_case "sub underflow (CVE-2021-3409 shape)" `Quick
            test_eval_overflow_sub;
          Alcotest.test_case "mul overflow" `Quick test_eval_overflow_mul;
          Alcotest.test_case "shl overflow" `Quick test_eval_shl_overflow;
          Alcotest.test_case "no false positives" `Quick test_eval_no_false_overflow;
          Alcotest.test_case "div by zero" `Quick test_eval_div_zero;
          Alcotest.test_case "undefined names" `Quick test_eval_undefined;
          QCheck_alcotest.to_alcotest prop_add_matches_reference;
          QCheck_alcotest.to_alcotest prop_cmp_matches_reference;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "straight line" `Quick test_interp_straightline;
          Alcotest.test_case "branch directions" `Quick test_interp_branch_directions;
          Alcotest.test_case "switch and default" `Quick test_interp_switch_default;
          Alcotest.test_case "icall and wild jump" `Quick test_interp_icall_and_wild_jump;
          Alcotest.test_case "icall guard" `Quick test_interp_icall_guard;
          Alcotest.test_case "step limit (hang)" `Quick test_interp_step_limit;
          Alcotest.test_case "depth limit" `Quick test_interp_depth_limit;
          Alcotest.test_case "chained handler" `Quick test_interp_chained_handler;
          Alcotest.test_case "oob hook and trap" `Quick test_interp_oob_hook_and_trap;
          Alcotest.test_case "host values" `Quick test_interp_host_values;
          Alcotest.test_case "sync points" `Quick test_interp_sync_points;
          Alcotest.test_case "observation points" `Quick test_interp_observation;
          Alcotest.test_case "guest memory dma" `Quick test_guest_memory_dma;
          Alcotest.test_case "bit-63 guest addresses" `Quick test_bytes_guest_bit63;
        ] );
      ( "lowered",
        [
          Alcotest.test_case "dma in past a buffer and the arena" `Quick
            test_dma_in_overflow;
          Alcotest.test_case "dma out past a buffer and the arena" `Quick
            test_dma_out_overflow;
          Alcotest.test_case "fill past a buffer and the arena" `Quick
            test_fill_overflow;
          Alcotest.test_case "hooks and points installed after create" `Quick
            test_late_installation;
          Alcotest.test_case "create fails closed on unresolved names" `Quick
            test_create_fails_closed;
          Alcotest.test_case "steady-state read allocation budget" `Quick
            test_read_allocation_budget;
        ] );
      ("pinned", pin_cases);
    ]
