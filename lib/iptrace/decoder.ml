open Devir

type transfer =
  | Fall
  | Taken
  | Not_taken
  | Sw of Program.bref
  | Call of int64
  | End

type step = { block : Program.bref; transfer : transfer }

type trace = step list

exception Desync of string

let desync fmt = Format.kasprintf (fun s -> raise (Desync s)) fmt

(* Mutable cursor over the packet stream with a TNT bit queue. *)
type cursor = {
  mutable rest : Packet.t list;
  mutable bits : bool list;
}

let rec next_tnt cur =
  match cur.bits with
  | b :: bits ->
    cur.bits <- bits;
    b
  | [] -> (
    match cur.rest with
    | Packet.Tnt_short bits :: rest ->
      cur.rest <- rest;
      cur.bits <- bits;
      next_tnt cur
    | Packet.Pad :: rest ->
      cur.rest <- rest;
      next_tnt cur
    | p :: _ -> desync "expected TNT, found %s" (Packet.to_string p)
    | [] -> desync "expected TNT, stream ended")

let next_tip cur =
  if cur.bits <> [] then desync "unconsumed TNT bits before TIP";
  match cur.rest with
  | Packet.Tip addr :: rest ->
    cur.rest <- rest;
    addr
  | Packet.Pad :: _ ->
    (* A filtered-out indirect target: the decoder cannot continue. *)
    desync "indirect target was filtered out of the trace"
  | Packet.Tnt_short _ :: _ -> desync "unexpected TNT before TIP"
  | p :: _ -> desync "expected TIP, found %s" (Packet.to_string p)
  | [] -> desync "expected TIP, stream ended"

let expect_pgd cur =
  let rec go () =
    match cur.rest with
    | Packet.Tip_pgd :: rest ->
      cur.rest <- rest;
      if cur.bits <> [] then desync "TNT bits left over at PGD"
    | Packet.Pad :: rest ->
      cur.rest <- rest;
      go ()
    | p :: _ -> desync "expected TIP.PGD, found %s" (Packet.to_string p)
    | [] -> desync "expected TIP.PGD, stream ended"
  in
  go ()

(* Walk the program's block index from a window's entry block, consuming
   packets and handing each step to [on_step] in order.  [stack] holds the
   indirect-call blocks of chained handlers, whose continuations are
   resolved on return.  Says whether the window ended at a wild jump. *)
let walk_window program cur on_step entry =
  let rec walk i stack =
    match (Program.block_of_index program i).term with
    | Term.Goto _ ->
      on_step i Fall;
      walk (Program.succ_index program i 0) stack
    | Term.Branch _ ->
      let taken = next_tnt cur in
      on_step i (if taken then Taken else Not_taken);
      walk (Program.succ_index program i (if taken then 0 else 1)) stack
    | Term.Switch _ ->
      let addr = next_tip cur in
      let dest = Program.index_at program addr in
      if dest < 0 then desync "switch TIP %Lx resolves to no block" addr;
      on_step i (Sw (Program.bref_of_index program dest));
      walk dest stack
    | Term.Icall _ -> (
      let target = next_tip cur in
      on_step i (Call target);
      match Program.find_callback program target with
      | Some { action = Program.Run_handler callee; _ } ->
        let entry = Program.entry_index program callee in
        if entry < 0 then desync "chained handler %s is empty" callee;
        walk entry (i :: stack)
      | Some _ -> walk (Program.succ_index program i 0) stack
      | None ->
        (* A wild jump: the interpreter trapped right after emitting this
           TIP, so the window ends here with no PGD; the partial path is
           kept. *)
        true)
    | Term.Halt -> (
      on_step i End;
      match stack with
      | call :: stack -> walk (Program.succ_index program call 0) stack
      | [] -> false)
  in
  walk entry []

let walk program packets ~on_step ~on_close =
  let cur = { rest = packets; bits = [] } in
  let rec go () =
    match cur.rest with
    | [] -> ()
    | Packet.Psb :: rest ->
      cur.rest <- rest;
      (match cur.rest with
      | Packet.Psbend :: rest -> cur.rest <- rest
      | _ -> desync "PSB without PSBEND");
      (match cur.rest with
      | Packet.Tip_pge addr :: rest ->
        cur.rest <- rest;
        let entry = Program.index_at program addr in
        if entry < 0 then desync "PGE %Lx resolves to no block" addr;
        (* A window that a wild jump trapped has no PGD.  Any other window
           without one was cut short by a trap the path cannot show. *)
        if not (walk_window program cur on_step entry) then expect_pgd cur;
        on_close ()
      | _ -> desync "PSBEND without TIP.PGE");
      go ()
    | Packet.Pad :: rest ->
      cur.rest <- rest;
      go ()
    | p :: _ -> desync "unexpected %s between windows" (Packet.to_string p)
  in
  go ()

let decode program packets =
  let traces = ref [] and steps = ref [] in
  walk program packets
    ~on_step:(fun i transfer ->
      steps := { block = Program.bref_of_index program i; transfer } :: !steps)
    ~on_close:(fun () ->
      traces := List.rev !steps :: !traces;
      steps := []);
  List.rev !traces
