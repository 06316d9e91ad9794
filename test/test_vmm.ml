(* Tests for the machine substrate: guest memory, IRQ controller, bus
   routing, interposer semantics and VM-halt behaviour. *)

open Devir
open Devir.Dsl

let test_guest_mem_rw () =
  let g = Vmm.Guest_mem.create 256 in
  Vmm.Guest_mem.write g 10L Width.W32 0xCAFEBABEL;
  Alcotest.(check int64) "w32 roundtrip" 0xCAFEBABEL
    (Vmm.Guest_mem.read g 10L Width.W32);
  Alcotest.(check int) "byte order" 0xBE (Vmm.Guest_mem.read_byte g 10L);
  Vmm.Guest_mem.blit_in g 20L (Bytes.of_string "abc");
  Alcotest.(check string) "blit roundtrip" "abc"
    (Bytes.to_string (Vmm.Guest_mem.blit_out g 20L 3))

let test_guest_mem_out_of_range () =
  let g = Vmm.Guest_mem.create 16 in
  Vmm.Guest_mem.write_byte g 100L 0xFF;
  Alcotest.(check int) "oob write dropped, read zero" 0
    (Vmm.Guest_mem.read_byte g 100L)

let test_guest_mem_fill () =
  let g = Vmm.Guest_mem.create 16 in
  Vmm.Guest_mem.fill g 4L 4 0xAA;
  Alcotest.(check int) "filled" 0xAA (Vmm.Guest_mem.read_byte g 7L);
  Alcotest.(check int) "outside fill" 0 (Vmm.Guest_mem.read_byte g 8L)

(* [Int64.to_int] drops bit 63, so a range test on the converted [int]
   would let an address with that bit set alias the RAM byte below it.
   Every path must treat such an address as out of range, and a range
   that wraps past [Int64.max_int] leaves RAM at the wrap. *)
let test_guest_mem_bit63 () =
  let g = Vmm.Guest_mem.create 64 in
  Vmm.Guest_mem.fill g 0L 64 0x11;
  let alias off = Int64.logor Int64.min_int (Int64.of_int off) in
  Alcotest.(check int) "read_byte" 0 (Vmm.Guest_mem.read_byte g (alias 5));
  Alcotest.(check int64) "read" 0L (Vmm.Guest_mem.read g (alias 8) Width.W64);
  Alcotest.(check string) "blit_out" (String.make 8 '\000')
    (Bytes.to_string (Vmm.Guest_mem.blit_out g (alias 16) 8));
  Alcotest.(check string) "blit_out wrapping past max_int" (String.make 4 '\000')
    (Bytes.to_string (Vmm.Guest_mem.blit_out g Int64.max_int 4));
  Vmm.Guest_mem.write_byte g (alias 6) 0xFF;
  Vmm.Guest_mem.write g (alias 8) Width.W32 0xFFFF_FFFFL;
  Vmm.Guest_mem.blit_in g (alias 16) (Bytes.make 8 '\255');
  Vmm.Guest_mem.fill g (alias 32) 8 0xFF;
  Vmm.Guest_mem.fill g Int64.max_int 4 0xFF;
  Alcotest.(check string) "writes dropped" (String.make 64 '\x11')
    (Bytes.to_string (Vmm.Guest_mem.snapshot g))

(* With nothing interposed, an in-RAM range moves with one [Bytes]
   operation: no call allocates beyond its own result (the per-byte path
   boxes an [int64] address per byte).  Counts are exact. *)
let test_guest_mem_alloc_budget () =
  let g = Vmm.Guest_mem.create (64 * 1024) in
  let frame = Bytes.make 1460 'x' in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let keep x = ignore (Sys.opaque_identity x) in
  let check name expected f =
    (* The first call warms up; the second is measured. *)
    ignore (words f);
    Alcotest.(check int) name expected (words f)
  in
  check "1460-byte blit_in" 0 (fun () -> Vmm.Guest_mem.blit_in g 0x1FF0L frame);
  check "1460-byte fill" 0 (fun () -> Vmm.Guest_mem.fill g 0x1FF0L 1460 0xAA);
  check "W32 write" 0 (fun () -> Vmm.Guest_mem.write g 0x3000L Width.W32 0xDEADBEEFL);
  (* The result: a header and 183 words of bytes. *)
  check "1460-byte blit_out" 184 (fun () -> keep (Vmm.Guest_mem.blit_out g 0x1FF0L 1460));
  (* The result: one boxed int64. *)
  check "W32 read" 3 (fun () -> keep (Vmm.Guest_mem.read g 0x3000L Width.W32))

let test_irq_controller () =
  let irq = Vmm.Irq.create () in
  Vmm.Irq.register irq "dev";
  Alcotest.(check bool) "initially low" false (Vmm.Irq.is_raised irq "dev");
  Vmm.Irq.raise_line irq "dev";
  Vmm.Irq.raise_line irq "dev";
  Alcotest.(check int) "level-triggered count" 1 (Vmm.Irq.raise_count irq "dev");
  Vmm.Irq.lower_line irq "dev";
  Vmm.Irq.raise_line irq "dev";
  Alcotest.(check int) "second edge" 2 (Vmm.Irq.raise_count irq "dev");
  Vmm.Irq.clear_counts irq;
  Alcotest.(check int) "cleared" 0 (Vmm.Irq.raise_count irq "dev")

(* A trivial device for routing tests. *)
let echo_layout = Layout.make [ Layout.reg "last" Width.W32 ]

let echo_program name =
  Program.make ~name ~layout:echo_layout
    [
      handler "write"
        ~params:[ "addr"; "offset"; "size"; "data" ]
        [ entry "e" [ set "last" (prm "data") ] (goto "x"); exit_ "x" [] ];
      handler "read"
        ~params:[ "addr"; "offset"; "size"; "data" ]
        [ entry "e" [ respond (fld "last") ] (goto "x"); exit_ "x" [] ];
    ]

let echo_binding ?(pmio_base = 0x100L) name =
  let program = echo_program name in
  Devices.Device.binding_of ~program
    ~pmio:[ (pmio_base, 8) ]
    ~pmio_read:"read" ~pmio_write:"write" ()

let test_machine_routing () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "echo");
  (match Vmm.Machine.io_write m ~port:0x104L ~size:4 ~data:42L with
  | Vmm.Machine.Io_ok _ -> ()
  | _ -> Alcotest.fail "write failed");
  (match Vmm.Machine.io_read m ~port:0x100L ~size:4 with
  | Vmm.Machine.Io_ok (Some 42L) -> ()
  | _ -> Alcotest.fail "read failed");
  Alcotest.(check bool) "unmapped port" true
    (Vmm.Machine.io_read m ~port:0x900L ~size:1 = Vmm.Machine.Io_no_device)

let test_machine_overlap_rejected () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "a");
  Alcotest.(check bool) "overlap raises" true
    (try
       Vmm.Machine.attach m (echo_binding ~pmio_base:0x104L "b");
       false
     with Invalid_argument _ -> true)

let test_machine_duplicate_rejected () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "a");
  Alcotest.(check bool) "duplicate raises" true
    (try
       Vmm.Machine.attach m (echo_binding ~pmio_base:0x200L "a");
       false
     with Invalid_argument _ -> true)

let test_interposer_halt_blocks_before_execution () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "echo");
  Vmm.Machine.set_interposer m "echo"
    {
      Vmm.Machine.before = (fun _ -> Vmm.Machine.Halt "nope");
      after = (fun _ _ -> Vmm.Machine.Allow);
    };
  (match Vmm.Machine.io_write m ~port:0x100L ~size:4 ~data:7L with
  | Vmm.Machine.Io_blocked "nope" -> ()
  | _ -> Alcotest.fail "expected block");
  Alcotest.(check bool) "vm halted" true (Vmm.Machine.halted m);
  (* Device state untouched. *)
  let arena = Interp.arena (Vmm.Machine.interp_of m "echo") in
  Alcotest.(check int64) "no execution" 0L (Arena.get arena "last");
  (* Further I/O refused until resume. *)
  Alcotest.(check bool) "subsequent io refused" true
    (Vmm.Machine.io_read m ~port:0x100L ~size:4 = Vmm.Machine.Io_vm_halted);
  Vmm.Machine.resume m;
  Vmm.Machine.clear_interposer m "echo";
  Alcotest.(check bool) "resumed" true
    (match Vmm.Machine.io_read m ~port:0x100L ~size:4 with
    | Vmm.Machine.Io_ok _ -> true
    | _ -> false)

let test_interposer_warn_allows () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "echo");
  Vmm.Machine.set_interposer m "echo"
    {
      Vmm.Machine.before = (fun _ -> Vmm.Machine.Warn "careful");
      after = (fun _ _ -> Vmm.Machine.Warn "post");
    };
  (match Vmm.Machine.io_write m ~port:0x100L ~size:4 ~data:9L with
  | Vmm.Machine.Io_ok _ -> ()
  | _ -> Alcotest.fail "warn must allow");
  Alcotest.(check (list string)) "both warnings" [ "careful"; "post" ]
    (Vmm.Machine.warnings m);
  Vmm.Machine.clear_warnings m;
  Alcotest.(check (list string)) "cleared" [] (Vmm.Machine.warnings m)

let test_interposer_sees_request () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "echo");
  let seen = ref [] in
  Vmm.Machine.set_interposer m "echo"
    {
      Vmm.Machine.before =
        (fun req ->
          seen := (req.Vmm.Machine.handler, req.Vmm.Machine.params) :: !seen;
          Vmm.Machine.Allow);
      after = (fun _ _ -> Vmm.Machine.Allow);
    };
  ignore (Vmm.Machine.io_write m ~port:0x102L ~size:2 ~data:5L);
  match !seen with
  | [ ("write", params) ] ->
    Alcotest.(check (option int64)) "offset" (Some 2L) (List.assoc_opt "offset" params);
    Alcotest.(check (option int64)) "data" (Some 5L) (List.assoc_opt "data" params)
  | _ -> Alcotest.fail "interposer not called exactly once"

let test_trap_reporting () =
  let program =
    Program.make ~name:"crash" ~layout:echo_layout
      [
        handler "write"
          ~params:[ "addr"; "offset"; "size"; "data" ]
          [
            entry "e" [] (goto "spin");
            blk "spin" [] (goto "spin");
            exit_ "x" [];
          ];
      ]
  in
  let binding =
    Devices.Device.binding_of ~program ~pmio:[ (0x100L, 8) ] ~pmio_write:"write" ()
  in
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m binding;
  (match Vmm.Machine.io_write m ~port:0x100L ~size:1 ~data:0L with
  | Vmm.Machine.Io_fault Interp.Event.Step_limit -> ()
  | _ -> Alcotest.fail "expected hang fault");
  Alcotest.(check int) "trap recorded" 1 (List.length (Vmm.Machine.last_traps m));
  Vmm.Machine.clear_traps m;
  Alcotest.(check int) "traps cleared" 0 (List.length (Vmm.Machine.last_traps m))

let test_inject () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  Vmm.Machine.attach m (echo_binding "echo");
  match
    Vmm.Machine.inject m ~device:"echo" ~handler:"write"
      ~params:[ ("addr", 0L); ("offset", 0L); ("size", 1L); ("data", 77L) ]
  with
  | Vmm.Machine.Io_ok _ ->
    let arena = Interp.arena (Vmm.Machine.interp_of m "echo") in
    Alcotest.(check int64) "inject executed" 77L (Arena.get arena "last")
  | _ -> Alcotest.fail "inject failed"

let test_device_irq_wiring () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  let dev = Devices.Fdc.device ~version:(Devices.Qemu_version.v 2 3 0) in
  Vmm.Machine.attach m (dev.make_binding ());
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:3);
  Alcotest.(check bool) "irq raised through machine" true
    (Vmm.Irq.raise_count (Vmm.Machine.irq m) "fdc" > 0)

let test_machine_reboot () =
  let m = Vmm.Machine.create ~vmexit_cost:0 () in
  let dev = Devices.Fdc.device ~version:(Devices.Qemu_version.v 2 3 0) in
  Vmm.Machine.attach m (dev.make_binding ());
  let interp = Vmm.Machine.interp_of m "fdc" in
  let boot = Arena.snapshot (Interp.arena interp) in
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:3);
  let ram = Vmm.Machine.ram m in
  Vmm.Guest_mem.write_byte ram 0x100L 0x5A;
  Vmm.Guest_mem.set_read_fault ram (Some (fun _ b -> b lxor 0xFF));
  Interp.set_response_fault interp (Some Interp.no_response_fault);
  Vmm.Machine.set_interposer m "fdc"
    {
      Vmm.Machine.before = (fun _ -> Vmm.Machine.Halt "stop");
      after = (fun _ _ -> Vmm.Machine.Allow);
    };
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:4);
  let irq = Vmm.Machine.irq m in
  Alcotest.(check bool) "halted before reboot" true (Vmm.Machine.halted m);
  Alcotest.(check bool) "irq raised before reboot" true
    (Vmm.Irq.is_raised irq "fdc");
  Alcotest.(check bool) "arena moved before reboot" false
    (Bytes.equal boot (Arena.snapshot (Interp.arena interp)));
  Vmm.Machine.reboot m ~device:"fdc";
  Alcotest.(check bool) "resumed" false (Vmm.Machine.halted m);
  Alcotest.(check int) "ram cleared, read fault dropped" 0
    (Vmm.Guest_mem.read_byte ram 0x100L);
  Alcotest.(check bool) "response fault dropped" true
    (Option.is_none (Interp.response_fault interp));
  Alcotest.(check bool) "arena at boot state" true
    (Bytes.equal boot (Arena.snapshot (Interp.arena interp)));
  Alcotest.(check bool) "irq line lowered" false (Vmm.Irq.is_raised irq "fdc");
  Alcotest.(check int) "irq counts cleared" 0 (Vmm.Irq.raise_count irq "fdc");
  Alcotest.(check bool) "interposer kept" true
    (Option.is_some (Vmm.Machine.interposer_of m "fdc"))

let test_vmexit_spin_costs_time () =
  (* The VM-exit model must actually burn time, monotonically in the
     spin count (coarse check: 200k spins cost measurably more than 0). *)
  let time_accesses vmexit_cost =
    let m = Vmm.Machine.create ~vmexit_cost () in
    Vmm.Machine.attach m (echo_binding "echo");
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 2000 do
      ignore (Vmm.Machine.io_read m ~port:0x100L ~size:4)
    done;
    Unix.gettimeofday () -. t0
  in
  let free = time_accesses 0 and costly = time_accesses 200_000 in
  Alcotest.(check bool) "spin burns time" true (costly > free *. 2.0)

let test_ram_checkpoint_rollback () =
  let g = Vmm.Guest_mem.create 64 in
  Vmm.Guest_mem.write g 8L Width.W32 0xABCDL;
  Vmm.Guest_mem.checkpoint g;
  Vmm.Guest_mem.write g 8L Width.W32 0L;
  Vmm.Guest_mem.rollback g;
  Alcotest.(check int64) "restored" 0xABCDL (Vmm.Guest_mem.read g 8L Width.W32);
  match Vmm.Guest_mem.rollback (Vmm.Guest_mem.create 64) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rollback without a checkpoint accepted"

(* Incremental checkpoints and the bulk fast paths against a full-copy
   reference: random write, read, checkpoint and rollback sequences on a
   RAM whose size is not a whole number of 4 KiB pages, with addresses
   clustered on page boundaries and the end of RAM so multi-byte accesses
   straddle both.  Some addresses have bit 63 set, some ranges wrap past
   [Int64.max_int], and lengths can be zero or negative.  Every sequence
   runs three ways: with nothing interposed (the fast paths), under a
   write hook and under a read fault (the per-byte path). *)
type ram_op =
  | Write_byte of int64 * int
  | Write of int64 * Width.t * int64
  | Blit_in of int64 * string
  | Fill of int64 * int * int
  | Blit_out of int64 * int
  | Read of int64 * Width.t
  | Clear
  | Checkpoint
  | Rollback

let ram_size = (20 * 4096) + 1234

let print_ram_op = function
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%Lx 0x%x" a v
  | Write (a, w, v) ->
    Printf.sprintf "write 0x%Lx W%d 0x%Lx" a (8 * Width.bytes w) v
  | Blit_in (a, s) -> Printf.sprintf "blit_in 0x%Lx (%d bytes)" a (String.length s)
  | Fill (a, n, b) -> Printf.sprintf "fill 0x%Lx %d 0x%x" a n b
  | Blit_out (a, n) -> Printf.sprintf "blit_out 0x%Lx %d" a n
  | Read (a, w) -> Printf.sprintf "read 0x%Lx W%d" a (8 * Width.bytes w)
  | Clear -> "clear"
  | Checkpoint -> "checkpoint"
  | Rollback -> "rollback"

let gen_ram_ops =
  let open QCheck.Gen in
  let offset =
    oneof
      [
        int_range (-8) (ram_size + 8);
        map2 (fun p d -> (p * 4096) + d) (int_range 0 21) (int_range (-8) 8);
        map (fun d -> ram_size + d) (int_range (-8) 8);
      ]
  in
  let addr =
    frequency
      [
        (8, map Int64.of_int offset);
        (1, map (fun o -> Int64.logor Int64.min_int (Int64.of_int o)) offset);
        (1, map (fun d -> Int64.sub Int64.max_int (Int64.of_int d)) (int_bound 8));
      ]
  in
  let len = frequency [ (1, int_range (-4) 0); (6, int_bound 5000) ] in
  let width = oneofl [ Width.W8; Width.W16; Width.W32; Width.W64 ] in
  let op =
    frequency
      [
        (3, map2 (fun a v -> Write_byte (a, v)) addr (int_bound 255));
        (3, map3 (fun a w v -> Write (a, w, v)) addr width ui64);
        (2, map2 (fun a s -> Blit_in (a, s)) addr (string_size (int_bound 5000)));
        (2, map3 (fun a n b -> Fill (a, n, b)) addr len (int_bound 255));
        (2, map2 (fun a n -> Blit_out (a, n)) addr len);
        (3, map2 (fun a w -> Read (a, w)) addr width);
        (1, return Clear);
        (3, return Checkpoint);
        (3, return Rollback);
      ]
  in
  list_size (int_range 1 40) op

type interposer = Plain | Write_hook | Read_fault

(* A pure fault, as [set_read_fault] requires. *)
let fault addr b = (b lxor (Int64.to_int addr * 7) lxor 0x5A) land 0xFF

let run_ram_ops interposer ops =
  let g = Vmm.Guest_mem.create ram_size in
  let model = Bytes.make ram_size '\000' and saved = ref None in
  (* What the hook or fault saw during the current op, newest first, and
     what the model says it should have seen. *)
  let seen = ref [] and expected = ref [] in
  (match interposer with
  | Plain -> ()
  | Write_hook ->
    Vmm.Guest_mem.set_write_hook g (Some (fun a b -> seen := (a, b) :: !seen))
  | Read_fault ->
    Vmm.Guest_mem.set_read_fault g
      (Some
         (fun a b ->
           seen := (a, b) :: !seen;
           fault a b)));
  let in_ram a = a >= 0L && a < Int64.of_int ram_size in
  let at a i = Int64.add a (Int64.of_int i) in
  let poke a v =
    if in_ram a then begin
      Bytes.set model (Int64.to_int a) (Char.chr (v land 0xFF));
      if interposer = Write_hook then expected := (a, v land 0xFF) :: !expected
    end
  in
  let peek a =
    let b = if in_ram a then Char.code (Bytes.get model (Int64.to_int a)) else 0 in
    if interposer = Read_fault then begin
      expected := (a, b) :: !expected;
      fault a b
    end
    else b
  in
  let fail step op fmt =
    QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step (print_ram_op op)
  in
  List.iteri
    (fun step op ->
      seen := [];
      expected := [];
      (match op with
      | Write_byte (a, v) ->
        Vmm.Guest_mem.write_byte g a v;
        poke a v
      | Write (a, w, v) ->
        Vmm.Guest_mem.write g a w v;
        for i = 0 to Width.bytes w - 1 do
          poke (at a i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
        done
      | Blit_in (a, s) ->
        Vmm.Guest_mem.blit_in g a (Bytes.of_string s);
        String.iteri (fun i c -> poke (at a i) (Char.code c)) s
      | Fill (a, n, b) ->
        Vmm.Guest_mem.fill g a n b;
        for i = 0 to n - 1 do
          poke (at a i) b
        done
      | Blit_out (a, n) -> (
        match Vmm.Guest_mem.blit_out g a n with
        | exception Invalid_argument _ when n < 0 -> ()
        | got ->
          let want = Bytes.init (max n 0) (fun i -> Char.chr (peek (at a i))) in
          if not (Bytes.equal got want) then fail step op "read differs from the model")
      | Read (a, w) ->
        let got = Vmm.Guest_mem.read g a w in
        let want = ref 0L in
        for i = Width.bytes w - 1 downto 0 do
          want := Int64.logor (Int64.shift_left !want 8) (Int64.of_int (peek (at a i)))
        done;
        if got <> !want then fail step op "read 0x%Lx, model 0x%Lx" got !want
      | Clear ->
        Vmm.Guest_mem.clear g;
        Bytes.fill model 0 ram_size '\000'
      | Checkpoint ->
        Vmm.Guest_mem.checkpoint g;
        saved := Some (Bytes.copy model)
      | Rollback -> (
        match !saved with
        | Some image ->
          Vmm.Guest_mem.rollback g;
          Bytes.blit image 0 model 0 ram_size
        | None -> (
          match Vmm.Guest_mem.rollback g with
          | exception Invalid_argument _ -> ()
          | () -> fail step op "rollback without a checkpoint")));
      (* The write hook sees every in-RAM byte written, in order; the read
         fault sees every byte read (the scalar read's per-byte path goes
         from the highest address down, so order is not compared). *)
      (match interposer with
      | Plain -> ()
      | Write_hook ->
        if !seen <> !expected then fail step op "write hook log differs from the model"
      | Read_fault ->
        if List.sort compare !seen <> List.sort compare !expected then
          fail step op "read fault saw other bytes than the model read");
      if not (Bytes.equal (Vmm.Guest_mem.snapshot g) model) then
        fail step op "RAM differs from the model")
    ops

let prop_checkpoint_matches_full_copy =
  QCheck.Test.make ~name:"checkpoint/rollback match a full copy" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_ram_op ops))
       ~shrink:QCheck.Shrink.list gen_ram_ops)
    (fun ops ->
      List.iter (fun i -> run_ram_ops i ops) [ Plain; Write_hook; Read_fault ];
      true)

let () =
  Alcotest.run "vmm"
    [
      ( "guest-mem",
        [
          Alcotest.test_case "read/write" `Quick test_guest_mem_rw;
          Alcotest.test_case "out of range" `Quick test_guest_mem_out_of_range;
          Alcotest.test_case "fill" `Quick test_guest_mem_fill;
          Alcotest.test_case "bit-63 addresses" `Quick test_guest_mem_bit63;
          Alcotest.test_case "allocation budget" `Quick test_guest_mem_alloc_budget;
          QCheck_alcotest.to_alcotest prop_checkpoint_matches_full_copy;
        ] );
      ("irq", [ Alcotest.test_case "controller" `Quick test_irq_controller ]);
      ( "machine",
        [
          Alcotest.test_case "routing" `Quick test_machine_routing;
          Alcotest.test_case "overlap rejected" `Quick test_machine_overlap_rejected;
          Alcotest.test_case "duplicate rejected" `Quick test_machine_duplicate_rejected;
          Alcotest.test_case "halt blocks pre-execution" `Quick
            test_interposer_halt_blocks_before_execution;
          Alcotest.test_case "warn allows" `Quick test_interposer_warn_allows;
          Alcotest.test_case "interposer sees request" `Quick test_interposer_sees_request;
          Alcotest.test_case "trap reporting" `Quick test_trap_reporting;
          Alcotest.test_case "inject" `Quick test_inject;
          Alcotest.test_case "device irq wiring" `Quick test_device_irq_wiring;
          Alcotest.test_case "reboot restores boot state" `Quick
            test_machine_reboot;
          Alcotest.test_case "vm-exit spin costs time" `Slow test_vmexit_spin_costs_time;
          Alcotest.test_case "ram checkpoint/rollback" `Quick
            test_ram_checkpoint_rollback;
        ] );
    ]
