(* Tests for the static analyses: def-use chains, branch-influencing
   variable extraction and buffer-content relevance. *)

open Devir
open Devir.Dsl

let mk_handler blocks = handler "h" ~params:[ "data" ] blocks

let test_influencing_fields_transitive () =
  let h =
    mk_handler
      [
        entry "e"
          [ local "t" (fld "a" +% c 1); local "u" (lcl "t" *% fld "b") ]
          (br (lcl "u" >% c 0) "x" "x");
        exit_ "x" [];
      ]
  in
  let du = Progan.Defuse.analyze h in
  Alcotest.(check (list string)) "fields through two hops" [ "a"; "b" ]
    (List.sort compare (Progan.Defuse.influencing_fields du (lcl "u" >% c 0)))

let test_influencing_guest_is_opaque () =
  let h =
    mk_handler
      [
        entry "e"
          [ Stmt.Read_guest { local = "g"; addr = c 0; width = Width.W32 } ]
          (br (lcl "g" ==% c 1) "x" "x");
        exit_ "x" [];
      ]
  in
  let du = Progan.Defuse.analyze h in
  Alcotest.(check (list string)) "no fields through guest loads" []
    (Progan.Defuse.influencing_fields du (lcl "g" ==% c 1))

(* Usage facts on the real FDC model. *)
let fdc = Devices.Fdc.program ~version:(Devices.Qemu_version.v 2 3 0)

let test_usage_fdc_indexers () =
  let usage = Progan.Usage.analyze fdc in
  let data_pos = Progan.Usage.fact usage "data_pos" in
  Alcotest.(check bool) "data_pos indexes fifo" true
    (List.mem "fifo" data_pos.indexes_buffers);
  Alcotest.(check bool) "data_pos influences branches" true
    (data_pos.influences_branches <> []);
  let fifo = Progan.Usage.fact usage "fifo" in
  Alcotest.(check bool) "fifo is an indexed buffer" true fifo.is_indexed_buffer;
  let irq = Progan.Usage.fact usage "irq" in
  Alcotest.(check bool) "irq is called" true irq.is_called;
  let tdr = Progan.Usage.fact usage "tdr" in
  Alcotest.(check bool) "tdr indexes nothing" true (tdr.indexes_buffers = [])

let test_usage_branch_sites () =
  let usage = Progan.Usage.analyze fdc in
  let sites = Progan.Usage.branch_sites usage in
  Alcotest.(check bool) "many sites" true (List.length sites > 20);
  let bref : Program.bref = { handler = "write"; label = "w_cmd_phase" } in
  Alcotest.(check bool) "data_pos influences w_cmd_phase" true
    (List.mem "data_pos" (Progan.Usage.fields_influencing usage bref))

(* Relevance on the real device models. *)
let relevance_of program = Progan.Relevance.relevant_buffers program

let test_relevance_fdc () =
  (* FDC FIFO bytes flow only into data sinks (CHS fields feed the sector
     pattern and result staging, never a branch or index), so its content
     is NOT relevant — the checker skips replaying it. *)
  let r = relevance_of fdc in
  Alcotest.(check bool) "fifo content not control-relevant" false
    (List.mem "fifo" r)

let test_relevance_ehci () =
  let p = Devices.Ehci.program ~version:(Devices.Qemu_version.v 5 1 0) in
  let r = relevance_of p in
  Alcotest.(check bool) "setup_buf relevant" true (List.mem "setup_buf" r);
  Alcotest.(check bool) "data_buf NOT relevant (bulk data)" false
    (List.mem "data_buf" r)

let test_relevance_pcnet () =
  let p = Devices.Pcnet.program ~version:(Devices.Qemu_version.v 2 4 0) in
  let r = relevance_of p in
  Alcotest.(check bool) "frame buffer NOT relevant" false (List.mem "buffer" r)

let test_relevance_scsi () =
  let p = Devices.Scsi.program ~version:(Devices.Qemu_version.v 2 4 0) in
  let r = relevance_of p in
  Alcotest.(check bool) "cmdbuf relevant" true (List.mem "cmdbuf" r);
  Alcotest.(check bool) "cdb relevant" true (List.mem "cdb" r);
  Alcotest.(check bool) "dma bounce buffer NOT relevant" false
    (List.mem "dma_buf" r)

let test_relevance_sdhci () =
  let p = Devices.Sdhci.program ~version:(Devices.Qemu_version.v 5 2 0) in
  let r = relevance_of p in
  Alcotest.(check bool) "fifo_buffer NOT relevant" false (List.mem "fifo_buffer" r)

let () =
  Alcotest.run "progan"
    [
      ( "defuse",
        [
          Alcotest.test_case "transitive fields" `Quick test_influencing_fields_transitive;
          Alcotest.test_case "guest loads are opaque" `Quick test_influencing_guest_is_opaque;
        ] );
      ( "usage",
        [
          Alcotest.test_case "fdc indexers" `Quick test_usage_fdc_indexers;
          Alcotest.test_case "branch sites" `Quick test_usage_branch_sites;
        ] );
      ( "relevance",
        [
          Alcotest.test_case "fdc" `Quick test_relevance_fdc;
          Alcotest.test_case "ehci" `Quick test_relevance_ehci;
          Alcotest.test_case "pcnet" `Quick test_relevance_pcnet;
          Alcotest.test_case "scsi" `Quick test_relevance_scsi;
          Alcotest.test_case "sdhci" `Quick test_relevance_sdhci;
        ] );
    ]
