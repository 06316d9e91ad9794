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
  check "W32 read" 3 (fun () -> keep (Vmm.Guest_mem.read g 0x3000L Width.W32));
  (* The dirty map is scanned by the word; a checkpoint that finds one
     dirty page blits it into the image's own copy. *)
  Vmm.Guest_mem.checkpoint g;
  check "checkpoint, nothing dirty" 0 (fun () -> Vmm.Guest_mem.checkpoint g);
  check "checkpoint, one dirty page" 0 (fun () ->
      Vmm.Guest_mem.write_byte g 0x3000L 0x5A;
      Vmm.Guest_mem.checkpoint g)

(* Untouched pages cost nothing: a 16 MiB RAM that takes one byte,
   a checkpoint, a second byte on another page and a rollback allocates
   its two page tables (4,097 words each), its dirty map and three 4 KiB
   pages (514 words each, headers included): the first written page, its
   copy in the image and the second written page.  That is 10,250 words;
   a flat RAM and image allocated about 4.2 M.  [Gc.counters] counts the
   calling domain's direct major allocations at once, where
   [Gc.quick_stat] sees them only after the next collection. *)
let test_guest_mem_footprint () =
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let w0 = major () in
  let g = Vmm.Guest_mem.create (16 * 1024 * 1024) in
  Vmm.Guest_mem.write_byte g 0x1000L 0xAB;
  Vmm.Guest_mem.checkpoint g;
  Vmm.Guest_mem.write_byte g 0x80_0000L 0xCD;
  Vmm.Guest_mem.rollback g;
  let words = int_of_float (major () -. w0) in
  Alcotest.(check int) "first byte kept" 0xAB (Vmm.Guest_mem.read_byte g 0x1000L);
  Alcotest.(check int) "second byte rolled back" 0 (Vmm.Guest_mem.read_byte g 0x80_0000L);
  (* A little slack for words a minor collection might promote. *)
  if words > (2 * 4097) + (4 * 514) + 64 then Alcotest.failf "allocated %d major words" words

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
  let m = Vmm.Machine.create () in
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
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "a");
  Alcotest.(check bool) "overlap raises" true
    (try
       Vmm.Machine.attach m (echo_binding ~pmio_base:0x104L "b");
       false
     with Invalid_argument _ -> true)

(* Addresses are unsigned 64-bit: a range may end at the very top of the
   space, and ranges on either side of bit 63 are ordered as unsigned. *)
let mmio_echo name ranges =
  Devices.Device.binding_of ~program:(echo_program name) ~mmio:ranges
    ~mmio_read:"read" ~mmio_write:"write" ()

let test_machine_top_of_address_space () =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (mmio_echo "top" [ (0xFFFF_FFFF_FFFF_FF00L, 0x100) ]);
  Vmm.Machine.attach m (mmio_echo "mid" [ (0x7FFF_FFFF_FFFF_FFF0L, 0x20) ]);
  let routed addr =
    match Vmm.Machine.mmio_read m ~addr ~size:4 with
    | Vmm.Machine.Io_ok _ -> true
    | Vmm.Machine.Io_no_device -> false
    | _ -> Alcotest.failf "access at 0x%Lx failed" addr
  in
  Alcotest.(check bool) "inside the top range" true (routed 0xFFFF_FFFF_FFFF_FF04L);
  Alcotest.(check bool) "last address" true (routed (-1L));
  Alcotest.(check bool) "below the top range" false (routed 0xFFFF_FFFF_FFFF_FEFFL);
  Alcotest.(check bool) "no wrap to 0" false (routed 0L);
  Alcotest.(check bool) "across bit 63" true (routed 0x8000_0000_0000_0005L);
  Alcotest.(check bool) "past the middle range" false (routed 0x8000_0000_0000_0010L);
  let rejects what first second =
    let m = Vmm.Machine.create () in
    Vmm.Machine.attach m (mmio_echo "a" [ first ]);
    Alcotest.(check bool) what true
      (try
         Vmm.Machine.attach m (mmio_echo "b" [ second ]);
         false
       with Invalid_argument _ -> true)
  in
  let below = (0x7FFF_FFFF_FFFF_FF00L, 0x200) and above = (0x8000_0000_0000_0000L, 0x100) in
  rejects "overlap across bit 63" below above;
  rejects "overlap across bit 63, other order" above below;
  rejects "overlap at the top" (0xFFFF_FFFF_FFFF_FF00L, 0x100) (0xFFFF_FFFF_FFFF_FFF0L, 0x10);
  Alcotest.(check bool) "a range past the top raises" true
    (try
       Vmm.Machine.attach (Vmm.Machine.create ())
         (mmio_echo "wrap" [ (0xFFFF_FFFF_FFFF_FF00L, 0x200) ]);
       false
     with Invalid_argument _ -> true);
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (mmio_echo "a" [ (0x7FFF_FFFF_FFFF_FF00L, 0x100) ]);
  Vmm.Machine.attach m (mmio_echo "b" [ above ]);
  Alcotest.(check (list string)) "adjacent across bit 63" [ "a"; "b" ]
    (Vmm.Machine.device_names m)

let test_machine_duplicate_rejected () =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "a");
  Alcotest.(check bool) "duplicate raises" true
    (try
       Vmm.Machine.attach m (echo_binding ~pmio_base:0x200L "a");
       false
     with Invalid_argument _ -> true)

let test_interposer_halt_blocks_before_execution () =
  let m = Vmm.Machine.create () in
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
  Vmm.Machine.set_interposer m "echo"
    { Vmm.Machine.before = (fun _ -> Vmm.Machine.Allow); after = (fun _ _ -> Vmm.Machine.Allow) };
  Alcotest.(check bool) "resumed" true
    (match Vmm.Machine.io_read m ~port:0x100L ~size:4 with
    | Vmm.Machine.Io_ok _ -> true
    | _ -> false)

let test_interposer_warn_allows () =
  let m = Vmm.Machine.create () in
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
  let m = Vmm.Machine.create () in
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

(* Interposer layers, over every stack of two and three layers that
   return Allow, Warn or Halt in [before] and in [after]: every layer is
   called, in the order added; the merged verdict is the strongest, the
   earlier layer's reason winning between equals; a Halt in [before] runs
   no device and no [after]. *)
type v = A | W | H

let rank = function A -> 0 | W -> 1 | H -> 2
let v_name = function A -> "A" | W -> "W" | H -> "H"

let recording_layer calls i (b, a) =
  let verdict v tag =
    calls := tag :: !calls;
    match v with
    | A -> Vmm.Machine.Allow
    | W -> Vmm.Machine.Warn tag
    | H -> Vmm.Machine.Halt tag
  in
  {
    Vmm.Machine.before = (fun _ -> verdict b (Printf.sprintf "b%d" i));
    after = (fun _ _ -> verdict a (Printf.sprintf "a%d" i));
  }

(* The strongest verdict of a side and the tag of its first layer; [None]
   when every layer allows. *)
let expected side vs =
  let best = List.fold_left (fun m v -> max m (rank v)) 0 vs in
  let rec first i = function
    | [] -> None
    | v :: rest ->
      if best > 0 && rank v = best then Some (v, Printf.sprintf "%s%d" side i)
      else first (i + 1) rest
  in
  first 0 vs

let check_stack specs =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "echo");
  let calls = ref [] in
  List.iteri
    (fun i s ->
      let (_ : unit -> unit) = Vmm.Machine.add_interposer m "echo" (recording_layer calls i s) in
      ())
    specs;
  let result = Vmm.Machine.io_write m ~port:0x100L ~size:4 ~data:7L in
  let name =
    String.concat " " (List.map (fun (b, a) -> v_name b ^ "/" ^ v_name a) specs)
  in
  let tags side = List.mapi (fun i _ -> Printf.sprintf "%s%d" side i) specs in
  let last () = Arena.get (Interp.arena (Vmm.Machine.interp_of m "echo")) "last" in
  match expected "b" (List.map fst specs) with
  | Some (H, reason) ->
    Alcotest.(check bool) (name ^ ": blocked") true (result = Vmm.Machine.Io_blocked reason);
    Alcotest.(check (list string)) (name ^ ": only befores") (tags "b") (List.rev !calls);
    Alcotest.(check int64) (name ^ ": no device run") 0L (last ());
    Alcotest.(check (option string)) (name ^ ": halt reason") (Some reason)
      (Vmm.Machine.halt_reason m)
  | before ->
    Alcotest.(check bool) (name ^ ": ran") true (result = Vmm.Machine.Io_ok None);
    Alcotest.(check (list string)) (name ^ ": call order") (tags "b" @ tags "a")
      (List.rev !calls);
    Alcotest.(check int64) (name ^ ": device ran") 7L (last ());
    let after = expected "a" (List.map snd specs) in
    let warn = function Some (W, r) -> [ r ] | _ -> [] in
    Alcotest.(check (list string)) (name ^ ": warnings") (warn before @ warn after)
      (Vmm.Machine.warnings m);
    Alcotest.(check (option string)) (name ^ ": halt reason")
      (match after with Some (H, r) -> Some r | _ -> None)
      (Vmm.Machine.halt_reason m)

let test_interposer_layers_merge () =
  let vs = [ A; W; H ] in
  let pairs = List.concat_map (fun b -> List.map (fun a -> (b, a)) vs) vs in
  List.iter
    (fun p1 ->
      List.iter
        (fun p2 ->
          check_stack [ p1; p2 ];
          List.iter (fun p3 -> check_stack [ p1; p2; p3 ]) pairs)
        pairs)
    pairs

(* Removing a middle layer keeps the others in order; removing a layer
   twice is harmless. *)
let test_interposer_layer_removal () =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "echo");
  let calls = ref [] in
  let add i = Vmm.Machine.add_interposer m "echo" (recording_layer calls i (A, A)) in
  let remove0 = add 0 in
  let remove1 = add 1 in
  let (_ : unit -> unit) = add 2 in
  let run () =
    calls := [];
    ignore (Vmm.Machine.io_write m ~port:0x100L ~size:4 ~data:1L);
    List.rev !calls
  in
  Alcotest.(check (list string)) "three layers" [ "b0"; "b1"; "b2"; "a0"; "a1"; "a2" ] (run ());
  remove1 ();
  Alcotest.(check (list string)) "middle removed" [ "b0"; "b2"; "a0"; "a2" ] (run ());
  remove1 ();
  Alcotest.(check (list string)) "removed twice" [ "b0"; "b2"; "a0"; "a2" ] (run ());
  remove0 ();
  Alcotest.(check (list string)) "first removed" [ "b2"; "a2" ] (run ())

(* A tracer swaps itself in through [interposer_of] and [set_interposer]
   and puts the stack back the same way: verdicts before, during and
   after the swap are identical.  One layer is returned as installed. *)
let test_interposer_swap () =
  let swap specs =
    let m = Vmm.Machine.create () in
    Vmm.Machine.attach m (echo_binding "echo");
    let calls = ref [] in
    List.iteri
      (fun i s ->
        let (_ : unit -> unit) = Vmm.Machine.add_interposer m "echo" (recording_layer calls i s) in
        ())
      specs;
    let run () =
      Vmm.Machine.resume m;
      Vmm.Machine.clear_warnings m;
      calls := [];
      let r = Vmm.Machine.io_write m ~port:0x100L ~size:4 ~data:3L in
      (r, Vmm.Machine.warnings m, Vmm.Machine.halt_reason m, List.rev !calls)
    in
    let before = run () in
    let original = Option.get (Vmm.Machine.interposer_of m "echo") in
    Vmm.Machine.set_interposer m "echo"
      {
        Vmm.Machine.before = (fun req -> original.Vmm.Machine.before req);
        after = (fun req outcome -> original.Vmm.Machine.after req outcome);
      };
    let wrapped = run () in
    Vmm.Machine.set_interposer m "echo" original;
    let restored = run () in
    Alcotest.(check bool) "wrapped = before" true (wrapped = before);
    Alcotest.(check bool) "restored = before" true (restored = before)
  in
  swap [ (W, A); (H, W) ];
  swap [ (A, W); (W, H); (A, A) ];
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "echo");
  let ip = recording_layer (ref []) 0 (A, A) in
  let (_ : unit -> unit) = Vmm.Machine.add_interposer m "echo" ip in
  Alcotest.(check bool) "one layer returned as installed" true
    (Option.get (Vmm.Machine.interposer_of m "echo") == ip)

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
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m binding;
  (match Vmm.Machine.io_write m ~port:0x100L ~size:1 ~data:0L with
  | Vmm.Machine.Io_fault Interp.Event.Step_limit -> ()
  | _ -> Alcotest.fail "expected hang fault");
  Alcotest.(check int) "trap recorded" 1 (List.length (Vmm.Machine.last_traps m));
  Vmm.Machine.clear_traps m;
  Alcotest.(check int) "traps cleared" 0 (List.length (Vmm.Machine.last_traps m))

let test_inject () =
  let m = Vmm.Machine.create () in
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
  let m = Vmm.Machine.create () in
  let dev = Devices.Fdc.device ~version:(Devices.Qemu_version.v 2 3 0) in
  Vmm.Machine.attach m (dev.make_binding ());
  let d = Workload.Fdc_driver.create m in
  ignore (Workload.Fdc_driver.seek d ~drive:0 ~head:0 ~track:3);
  Alcotest.(check bool) "irq raised through machine" true
    (Vmm.Irq.raise_count (Vmm.Machine.irq m) "fdc" > 0)

let test_machine_reboot () =
  let m = Vmm.Machine.create () in
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

(* Every access that reaches a running VM's device is one VM exit,
   whatever its layers then decide; an access on a halted VM or one no
   device claims is none. *)
let test_machine_exit_count () =
  let m = Vmm.Machine.create () in
  Vmm.Machine.attach m (echo_binding "echo");
  Vmm.Machine.attach m (mmio_echo "mmio" [ (0x1000L, 0x10) ]);
  let exits what n f =
    let before = Vmm.Machine.exits m in
    ignore (f ());
    Alcotest.(check int) what n (Vmm.Machine.exits m - before)
  in
  let accesses =
    Vmm.Machine.
      [
        ("io_read", fun () -> io_read m ~port:0x100L ~size:4);
        ("io_write", fun () -> io_write m ~port:0x100L ~size:4 ~data:1L);
        ("mmio_read", fun () -> mmio_read m ~addr:0x1000L ~size:4);
        ("mmio_write", fun () -> mmio_write m ~addr:0x1004L ~size:4 ~data:1L);
        ( "inject",
          fun () ->
            inject m ~device:"echo" ~handler:"write"
              ~params:[ ("addr", 0L); ("offset", 0L); ("size", 1L); ("data", 1L) ] );
      ]
  in
  List.iter (fun (what, f) -> exits what 1 f) accesses;
  exits "unclaimed port" 0 (fun () -> Vmm.Machine.io_read m ~port:0x900L ~size:1);
  exits "unclaimed mmio" 0 (fun () -> Vmm.Machine.mmio_read m ~addr:0x5000L ~size:4);
  let (_ : unit -> unit) =
    Vmm.Machine.add_interposer m "echo"
      { before = (fun _ -> Vmm.Machine.Halt "stop"); after = (fun _ _ -> Vmm.Machine.Allow) }
  in
  exits "halted in before" 1 (List.assoc "io_write" accesses);
  Alcotest.(check bool) "vm halted" true (Vmm.Machine.halted m);
  List.iter (fun (what, f) -> exits (what ^ " on a halted vm") 0 f) accesses

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

(* Paged RAM, incremental checkpoints and the bulk fast paths against a
   full-copy reference: random write, read, clear, checkpoint and
   rollback sequences, with addresses clustered on page boundaries and
   the end of RAM so multi-byte accesses straddle both.  RAM is 20 pages
   plus a partial one, three whole pages, or less than one page.  Clears
   fall between other ops, and a rollback often lands on pages the
   checkpoint saw untouched (or cleared) and the guest wrote since, or
   the reverse.  Some addresses have bit 63 set, some ranges wrap past
   [Int64.max_int], and lengths can be zero or negative.  Every sequence
   runs three ways: with nothing interposed (the fast paths), under a
   write hook and under a read fault (the per-byte path).  Untouched
   pages share one zero page, so after every sequence a fresh RAM must
   still read zero everywhere. *)
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

(* The dirty map is scanned eight pages to a word, then byte by byte
   over the tail: page counts of 1, 3, 7, 9, 17 and 21 leave a tail, 8
   and 16 none. *)
let ram_sizes =
  [
    (20 * 4096) + 1234;
    3 * 4096;
    1000;
    4096;
    7 * 4096;
    8 * 4096;
    9 * 4096;
    (16 * 4096) + 1;
    16 * 4096;
    17 * 4096;
  ]

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

let gen_ram_ops ram_size =
  let open QCheck.Gen in
  let pages = (ram_size + 4095) / 4096 in
  let offset =
    oneof
      [
        int_range (-8) (ram_size + 8);
        map2 (fun p d -> (p * 4096) + d) (int_range 0 (pages + 1)) (int_range (-8) 8);
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
        (2, return Clear);
        (3, return Checkpoint);
        (3, return Rollback);
      ]
  in
  list_size (int_range 1 40) op

let gen_ram_case =
  QCheck.Gen.(oneofl ram_sizes >>= fun size -> map (fun ops -> (size, ops)) (gen_ram_ops size))

type interposer = Plain | Write_hook | Read_fault

(* A pure fault, as [set_read_fault] requires. *)
let fault addr b = (b lxor (Int64.to_int addr * 7) lxor 0x5A) land 0xFF

let run_ram_ops interposer (ram_size, ops) =
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
  QCheck.Test.make ~name:"checkpoint/rollback match a full copy" ~count:600
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "RAM %d: %s" size (String.concat "; " (List.map print_ram_op ops)))
       ~shrink:QCheck.Shrink.(pair nil list)
       gen_ram_case)
    (fun ((size, _) as case) ->
      List.iter (fun i -> run_ram_ops i case) [ Plain; Write_hook; Read_fault ];
      let fresh = Vmm.Guest_mem.create size in
      if Bytes.exists (fun c -> c <> '\000') (Vmm.Guest_mem.snapshot fresh) then
        QCheck.Test.fail_report "a fresh RAM reads a nonzero byte: the zero page was written";
      true)

(* Dirty pages on the edges of the map's words (pages 0, 7 and 8 and the
   last page, alone and together) on RAMs whose page count leaves a tail
   or none: a checkpoint saves exactly what was written, a rollback
   restores it, and a checkpoint right after another finds no page to
   copy. *)
let test_dirty_word_edges () =
  List.iter
    (fun size ->
      let pages = (size + 4095) / 4096 in
      let last = pages - 1 in
      List.iter
        (fun set ->
          let set = List.sort_uniq compare (List.filter (fun p -> p < pages) set) in
          let g = Vmm.Guest_mem.create size in
          let name fmt =
            Printf.ksprintf
              (fun s ->
                Printf.sprintf "%d pages, pages %s: %s" pages
                  (String.concat "," (List.map string_of_int set))
                  s)
              fmt
          in
          let byte_of p = min ((p * 4096) + (p mod 7)) (size - 1) in
          Vmm.Guest_mem.checkpoint g;
          Alcotest.(check int) (name "clean after the first checkpoint") 0
            (Vmm.Guest_mem.dirty_pages g);
          List.iter (fun p -> Vmm.Guest_mem.write_byte g (Int64.of_int (byte_of p)) (p + 1)) set;
          Alcotest.(check int) (name "dirty after the writes") (List.length set)
            (Vmm.Guest_mem.dirty_pages g);
          Vmm.Guest_mem.checkpoint g;
          Alcotest.(check int) (name "a second checkpoint finds nothing to copy") 0
            (Vmm.Guest_mem.dirty_pages g);
          Vmm.Guest_mem.checkpoint g;
          let saved = Vmm.Guest_mem.snapshot g in
          List.iter (fun p -> Vmm.Guest_mem.fill g (Int64.of_int (p * 4096)) 4096 0xEE) set;
          Vmm.Guest_mem.rollback g;
          Alcotest.(check bool) (name "rollback restores the saved bytes") true
            (Bytes.equal saved (Vmm.Guest_mem.snapshot g));
          List.iter
            (fun p ->
              Alcotest.(check int) (name "page %d kept its byte" p) (p + 1)
                (Vmm.Guest_mem.read_byte g (Int64.of_int (byte_of p))))
            set)
        [ [ 0 ]; [ 7 ]; [ 8 ]; [ last ]; [ 0; 7; 8; last ] ])
    [ 4096; 7 * 4096; 8 * 4096; 9 * 4096; 16 * 4096; (16 * 4096) + 1; 17 * 4096 ]

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
          Alcotest.test_case "footprint of untouched pages" `Quick test_guest_mem_footprint;
          Alcotest.test_case "dirty pages at word edges" `Quick test_dirty_word_edges;
          QCheck_alcotest.to_alcotest prop_checkpoint_matches_full_copy;
        ] );
      ("irq", [ Alcotest.test_case "controller" `Quick test_irq_controller ]);
      ( "machine",
        [
          Alcotest.test_case "routing" `Quick test_machine_routing;
          Alcotest.test_case "overlap rejected" `Quick test_machine_overlap_rejected;
          Alcotest.test_case "duplicate rejected" `Quick test_machine_duplicate_rejected;
          Alcotest.test_case "top of the address space" `Quick
            test_machine_top_of_address_space;
          Alcotest.test_case "halt blocks pre-execution" `Quick
            test_interposer_halt_blocks_before_execution;
          Alcotest.test_case "warn allows" `Quick test_interposer_warn_allows;
          Alcotest.test_case "interposer sees request" `Quick test_interposer_sees_request;
          Alcotest.test_case "interposer layers merge" `Quick test_interposer_layers_merge;
          Alcotest.test_case "interposer layer removal" `Quick test_interposer_layer_removal;
          Alcotest.test_case "interposer swap keeps verdicts" `Quick test_interposer_swap;
          Alcotest.test_case "trap reporting" `Quick test_trap_reporting;
          Alcotest.test_case "inject" `Quick test_inject;
          Alcotest.test_case "device irq wiring" `Quick test_device_irq_wiring;
          Alcotest.test_case "reboot restores boot state" `Quick
            test_machine_reboot;
          Alcotest.test_case "vm exits counted" `Quick test_machine_exit_count;
          Alcotest.test_case "ram checkpoint/rollback" `Quick
            test_ram_checkpoint_rollback;
        ] );
    ]
