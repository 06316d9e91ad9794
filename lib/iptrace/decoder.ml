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

(* Walk the program from an entry block, consuming packets, producing steps
   in order.  [stack] holds continuation blocks of chained handlers.  Also
   says whether the window ended at a wild jump. *)
let decode_window program cur entry =
  let steps = ref [] and wild = ref false in
  let push block transfer = steps := { block; transfer } :: !steps in
  let find (r : Program.bref) = Program.find_block program r in
  let rec walk (bref : Program.bref) stack =
    let block = find bref in
    let sibling label : Program.bref = { handler = bref.handler; label } in
    match block.term with
    | Term.Goto l ->
      push bref Fall;
      walk (sibling l) stack
    | Term.Branch (_, if_taken, if_not) ->
      let taken = next_tnt cur in
      push bref (if taken then Taken else Not_taken);
      walk (sibling (if taken then if_taken else if_not)) stack
    | Term.Switch (_, _, _) ->
      let addr = next_tip cur in
      let dest =
        match Program.block_at program addr with
        | Some d -> d
        | None -> desync "switch TIP %Lx resolves to no block" addr
      in
      push bref (Sw dest);
      walk dest stack
    | Term.Icall (_, next) ->
      let target = next_tip cur in
      push bref (Call target);
      let continue_at = sibling next in
      (match Program.find_callback program target with
      | Some { action = Program.Run_handler callee; _ } ->
        let callee_entry =
          match (Program.find_handler program callee).blocks with
          | b :: _ -> ({ handler = callee; label = b.label } : Program.bref)
          | [] -> desync "chained handler %s is empty" callee
        in
        walk callee_entry (continue_at :: stack)
      | Some _ -> walk continue_at stack
      | None ->
        (* A wild jump: the interpreter trapped right after emitting this
           TIP, so the window ends here with no PGD; the partial path is
           kept. *)
        wild := true)
    | Term.Halt -> (
      push bref End;
      match stack with
      | cont :: stack -> walk cont stack
      | [] -> ())
  in
  walk entry [];
  (List.rev !steps, !wild)

let decode program packets =
  let cur = { rest = packets; bits = [] } in
  let traces = ref [] in
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
        let entry =
          match Program.block_at program addr with
          | Some b -> b
          | None -> desync "PGE %Lx resolves to no block" addr
        in
        let steps, wild = decode_window program cur entry in
        (* A window that a wild jump trapped has no PGD.  Any other window
           without one was cut short by a trap the path cannot show. *)
        if not wild then expect_pgd cur;
        traces := steps :: !traces
      | _ -> desync "PSBEND without TIP.PGE");
      go ()
    | Packet.Pad :: rest ->
      cur.rest <- rest;
      go ()
    | p :: _ -> desync "unexpected %s between windows" (Packet.to_string p)
  in
  go ();
  List.rev !traces

let pp_step ppf s =
  let transfer =
    match s.transfer with
    | Fall -> "fall"
    | Taken -> "T"
    | Not_taken -> "N"
    | Sw d -> Printf.sprintf "sw->%s" (Program.bref_to_string d)
    | Call v -> Printf.sprintf "call %Lx" v
    | End -> "end"
  in
  Format.fprintf ppf "%a:%s" Program.pp_bref s.block transfer
