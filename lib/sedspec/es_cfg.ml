open Devir

type node = {
  bref : Program.bref;
  kind : Block.kind;
  dsod : Stmt.t list;
  term : Term.t;
  sync_locals : string list;
  mutable visits : int;
  mutable taken : int;
  mutable not_taken : int;
  mutable cases : (int64 * string) list;
  mutable itargets : int64 list;
  mutable succs : Program.bref list;
}

type cmd_key = Program.bref * int64

(* Where a spec's learned content came from.  [Trained] is the one-shot
   paper pipeline; the others are evolution derivations — the revision
   counter orders them so the rollout ladder can pin and roll back. *)
type provenance = Trained | Retrained of int

module Int_tbl = Hashtbl.Make (Int)

(* Nodes and access sets are arrays over the program's block index. *)
type t = {
  program : Program.t;
  selection : Selection.t;
  decision_scalars : (string * int * int) array;
  mutable revision : int;
  mutable provenance : provenance;
  nodes : node option array;
  cmd_table : (cmd_key, bool array) Hashtbl.t;
  no_cmd : bool array;
  (* Membership of the NBTD lists while Algorithm 1 folds a fresh spec:
     the lists stay in first-seen order on the nodes, and these make the
     once-per-visit test O(1) instead of a scan of the list on every
     visit (quadratic over a training log).  [edges] keys a successor
     edge [src * block_count + dst], [values] a switch's case value or an
     indirect call's target at its block ([v] fixes a switch's label). *)
  edges : unit Int_tbl.t;
  values : (int * int64, unit) Hashtbl.t;
  mutable foldable : bool;
      (* No [reduce] or [import_node] yet, so [edges] and [values] still
         describe the nodes. *)
  removed : bool array;
      (* Blocks ever removed by {!reduce} — makes the [reduced] counter
         idempotent across repeated reductions of the same blocks. *)
  mutable reduced : int;
}

exception Restore_failed of string

(* Branch influencers, index parameters and called function pointers. *)
let decision_relevant (sel : Selection.t) name =
  match List.assoc_opt name sel.rationale with
  | Some rules ->
    List.exists
      (fun r ->
        r = Selection.Branch_influencer || r = Selection.Rule2_index
        || r = Selection.Rule2_fn_ptr)
      rules
  | None -> false

(* Resolved once per spec, so every checker of a cached spec shares one
   table.  A name that is not a scalar field of the layout gets offset
   -1. *)
let resolve_decision_scalars program (sel : Selection.t) =
  let layout = Program.layout program in
  let resolve name =
    match (Layout.find layout name).kind with
    | Layout.Reg w -> (name, Layout.offset layout name, Width.bytes w)
    | Layout.Fn_ptr -> (name, Layout.offset layout name, 8)
    | Layout.Buf _ | (exception Not_found) -> (name, -1, 0)
  in
  Array.of_list
    (List.filter_map
       (fun name -> if decision_relevant sel name then Some (resolve name) else None)
       sel.scalars)

let create ~program ~selection =
  let n = Program.block_count program in
  {
    program;
    selection;
    decision_scalars = resolve_decision_scalars program selection;
    revision = 0;
    provenance = Trained;
    nodes = Array.make n None;
    cmd_table = Hashtbl.create 32;
    no_cmd = Array.make n false;
    edges = Int_tbl.create 256;
    values = Hashtbl.create 64;
    foldable = true;
    removed = Array.make n false;
    reduced = 0;
  }

(* DSOD lifting: keep statements that write device state (directly or by
   DMA), plus the definitions the replay needs (locals, guest loads, host
   values).  Responses and guest stores do not change device state; guest
   stores must also never run inside the checker. *)
let lift_dsod stmts =
  List.filter
    (fun (stmt : Stmt.t) ->
      match stmt with
      | Stmt.Set_field _ | Stmt.Set_buf _ | Stmt.Set_local _ | Stmt.Buf_fill _
      | Stmt.Copy_from_guest _ | Stmt.Copy_to_guest _ | Stmt.Read_guest _
      | Stmt.Host_value _ ->
        true
      | Stmt.Respond _ | Stmt.Write_guest _ | Stmt.Note _ -> false)
    stmts

let sync_locals_of stmts =
  List.filter_map
    (fun (stmt : Stmt.t) ->
      match stmt with
      | Stmt.Host_value { local; _ } -> Some local
      | _ -> None)
    stmts

let get_node t i =
  match t.nodes.(i) with
  | Some n -> n
  | None ->
    let block = Program.block_of_index t.program i in
    let n =
      {
        bref = Program.bref_of_index t.program i;
        kind = block.Block.kind;
        dsod = lift_dsod block.Block.stmts;
        term = block.Block.term;
        sync_locals = sync_locals_of block.Block.stmts;
        visits = 0;
        taken = 0;
        not_taken = 0;
        cases = [];
        itargets = [];
        succs = [];
      }
    in
    t.nodes.(i) <- Some n;
    n

(* The command context of Algorithm 1, holding the current command's
   access set once the decision block has resolved it. *)
type ctx = Ctx_none | Ctx_cmd of bool array

let access_set t key =
  match Hashtbl.find_opt t.cmd_table key with
  | Some set -> set
  | None ->
    let set = Array.make (Program.block_count t.program) false in
    Hashtbl.add t.cmd_table key set;
    set

let restore_failed fmt = Format.kasprintf (fun s -> raise (Restore_failed s)) fmt

(* One interaction's walk: the entries not yet consumed, the previous
   block (-1 before the first) and the command context. *)
type walk = {
  mutable entries : Interp.Event.observe_entry list;
  mutable prev : int;
  mutable ctx : ctx;
}

let first_value t i v =
  if Hashtbl.mem t.values (i, v) then false
  else begin
    Hashtbl.add t.values (i, v) ();
    true
  end

(* Count a visit of block [i] and its edge from the previous block. *)
let visit t w i =
  let n = get_node t i in
  n.visits <- n.visits + 1;
  (match w.ctx with Ctx_none -> t.no_cmd.(i) <- true | Ctx_cmd set -> set.(i) <- true);
  (if w.prev >= 0 then
     let key = (w.prev * Array.length t.nodes) + i in
     if not (Int_tbl.mem t.edges key) then begin
       Int_tbl.add t.edges key ();
       match t.nodes.(w.prev) with
       | Some p -> p.succs <- p.succs @ [ n.bref ]
       | None -> ()
     end);
  w.prev <- i;
  n

(* The outcome the log recorded at block [i], which must be its next
   entry. *)
let outcome_at w (n : node) i =
  match w.entries with
  | e :: rest when e.Interp.Event.index = i ->
    w.entries <- rest;
    e.outcome
  | e :: _ ->
    restore_failed "%a reached, but the log's next entry is at %a"
      Program.pp_bref n.bref Program.pp_bref e.block
  | [] -> restore_failed "%a reached, but the log has ended" Program.pp_bref n.bref

(* A goto or halt block needs no entry, but consumes its own. *)
let skip_entry w i =
  match w.entries with
  | e :: rest when e.Interp.Event.index = i -> w.entries <- rest
  | _ -> ()

let mismatch (n : node) outcome =
  restore_failed "%a: the log says %a" Program.pp_bref n.bref
    Interp.Event.pp_obs_outcome outcome

(* The successor slot [k] of a switch's label, counting from the first
   case; the default's slot follows the last case. *)
let rec switch_slot (n : node) default dest k = function
  | (_, label) :: rest ->
    if String.equal label dest then k else switch_slot n default dest (k + 1) rest
  | [] ->
    if String.equal default dest then k
    else
      restore_failed "%a: the log's case label %s is not the switch's" Program.pp_bref
        n.bref dest

let end_command w (n : node) = if n.kind = Block.Cmd_end then w.ctx <- Ctx_none

(* Walk the source by block index from the handler entry, consuming
   observation entries at the observation points; the gaps between them
   are deterministic.  [stack] holds the indirect-call blocks of chained
   handlers, whose continuations are resolved on return. *)
let rec walk t w i stack fuel =
  if fuel = 0 then
    restore_failed "%a: the walk ran out of fuel" Program.pp_bref
      (Program.bref_of_index t.program i);
  let n = visit t w i in
  match n.term with
  | Term.Goto _ ->
    skip_entry w i;
    end_command w n;
    walk t w (Program.succ_index t.program i 0) stack (fuel - 1)
  | Term.Halt -> (
    skip_entry w i;
    end_command w n;
    match stack with
    | call :: rest -> walk t w (Program.succ_index t.program call 0) rest (fuel - 1)
    | [] -> ())
  | Term.Branch _ -> (
    match outcome_at w n i with
    | Interp.Event.O_taken ->
      n.taken <- n.taken + 1;
      end_command w n;
      walk t w (Program.succ_index t.program i 0) stack (fuel - 1)
    | Interp.Event.O_not_taken ->
      n.not_taken <- n.not_taken + 1;
      end_command w n;
      walk t w (Program.succ_index t.program i 1) stack (fuel - 1)
    | o -> mismatch n o)
  | Term.Switch (_, cases, default) -> (
    match outcome_at w n i with
    | Interp.Event.O_case (v, dest) ->
      let k = switch_slot n default dest 0 cases in
      if first_value t i v then n.cases <- n.cases @ [ (v, dest) ];
      if n.kind = Block.Cmd_decision then w.ctx <- Ctx_cmd (access_set t (n.bref, v));
      end_command w n;
      walk t w (Program.succ_index t.program i k) stack (fuel - 1)
    | o -> mismatch n o)
  | Term.Icall _ -> (
    match outcome_at w n i with
    | Interp.Event.O_icall v -> (
      if first_value t i v then n.itargets <- n.itargets @ [ v ];
      end_command w n;
      match Program.find_callback t.program v with
      | Some { Program.action = Program.Run_handler callee; _ } ->
        let entry = Program.entry_index t.program callee in
        if entry < 0 then
          restore_failed "%a: chained handler %s is empty" Program.pp_bref n.bref callee;
        walk t w entry (i :: stack) (fuel - 1)
      | Some _ -> walk t w (Program.succ_index t.program i 0) stack (fuel - 1)
      | None -> (* a wild jump: the interaction trapped here *) ())
    | o -> mismatch n o)

let add_interaction t ctx (i : Ds_log.interaction) =
  if not t.foldable then
    invalid_arg "Es_cfg.add_interaction: the spec was reduced or imported";
  let entry = Program.entry_index t.program i.handler in
  if entry < 0 then invalid_arg "Es_cfg.add_interaction: empty handler";
  let w = { entries = i.entries; prev = -1; ctx } in
  walk t w entry [] 1_000_000;
  (match w.entries with
  | e :: _ ->
    restore_failed "%s: the walk ended before the log's entry at %a" i.handler
      Program.pp_bref e.block
  | [] -> ());
  w.ctx

let case_start = Ctx_none

let program t = t.program
let selection t = t.selection
let decision_scalars t = t.decision_scalars
let revision t = t.revision
let provenance t = t.provenance

let set_version t ~revision ~provenance =
  if revision < 0 then invalid_arg "Es_cfg.set_version: negative revision";
  t.revision <- revision;
  t.provenance <- provenance

let provenance_to_string = function
  | Trained -> "trained"
  | Retrained cases -> Printf.sprintf "retrained:%d" cases

let provenance_of_string s =
  match s with
  | "trained" -> Some Trained
  | _ -> (
    match String.split_on_char ':' s with
    | [ "retrained"; n ] -> (
      match int_of_string_opt n with
      | Some cases when cases >= 0 -> Some (Retrained cases)
      | _ -> None)
    | _ -> None)

let index_of t bref =
  match Program.index_of t.program bref with i -> i | exception Not_found -> -1

let node_at t i = if i < 0 then None else t.nodes.(i)
let node t bref = node_at t (index_of t bref)

(* In the block index's order, which is address order. *)
let nodes t = List.filter_map Fun.id (Array.to_list t.nodes)

let node_count t =
  Array.fold_left (fun acc n -> if Option.is_some n then acc + 1 else acc) 0 t.nodes

let entry_of t handler =
  match Program.entry_index t.program handler with
  | -1 -> invalid_arg "Es_cfg.entry_of: empty handler"
  | i -> Program.bref_of_index t.program i

let cmd_known t key = Hashtbl.mem t.cmd_table key

let cmd_allows t key bref =
  match Hashtbl.find_opt t.cmd_table key with
  | Some set -> ( match index_of t bref with -1 -> false | i -> set.(i))
  | None -> false

let no_cmd_allows t bref = match index_of t bref with -1 -> false | i -> t.no_cmd.(i)

let cmd_key_compare ((a, va) : cmd_key) ((b, vb) : cmd_key) =
  match Program.bref_compare a b with 0 -> Int64.compare va vb | n -> n

(* Sorted: hash-fold order depends on insertion history (and could change
   across OCaml releases), and these lists feed pp_stats, viz and JSON
   reports — plus the dense command-id assignment both walk engines
   share, which must be reproducible across processes. *)
let commands t =
  List.sort cmd_key_compare
    (Hashtbl.fold (fun key _ acc -> key :: acc) t.cmd_table [])

let sync_points t =
  List.sort
    (fun (a, _) (b, _) -> Program.bref_compare a b)
    (List.filter_map
       (fun n -> if n.sync_locals <> [] then Some (n.bref, n.sync_locals) else None)
       (nodes t))

let access_entries t =
  let sorted_members set =
    let members = ref [] in
    Array.iteri
      (fun i allowed ->
        if allowed then members := Program.bref_of_index t.program i :: !members)
      set;
    List.sort Program.bref_compare !members
  in
  List.map (fun b -> (None, b)) (sorted_members t.no_cmd)
  @ List.concat_map
      (fun key ->
        List.map
          (fun b -> (Some key, b))
          (sorted_members (Hashtbl.find t.cmd_table key)))
      (commands t)

(* Chase a successor through blocks the walker passes without work (no
   DSOD, unconditional transfer) until a present node; [None] when the
   chain halts, leaves defined ground or cycles. *)
let chase_to_node t (start : Program.bref) =
  let rec go i fuel =
    if Option.is_some t.nodes.(i) then Some (Program.bref_of_index t.program i)
    else if fuel = 0 then None
    else
      let block = Program.block_of_index t.program i in
      if lift_dsod block.Block.stmts <> [] then None
      else
        match block.Block.term with
        | Term.Goto _ -> (
          match Program.succ_index t.program i 0 with
          | j -> go j (fuel - 1)
          | exception Not_found -> None)
        | _ -> None
  in
  match index_of t start with -1 -> None | i -> go i 1024

let reduce t =
  t.foldable <- false;
  let removable = ref [] in
  Array.iteri
    (fun i n ->
      match n with
      | Some { kind = Block.Normal; dsod = []; term = Term.Goto _; _ } ->
        removable := i :: !removable
      | _ -> ())
    t.nodes;
  let removable = !removable in
  List.iter (fun i -> t.nodes.(i) <- None) removable;
  (* Rewrite surviving nodes' successor edges through the removed blocks:
     an NBTD edge into a reduced-away block would otherwise dangle.  The
     chase mirrors the walker's pass-through rule. *)
  if removable <> [] then
    Array.iter
      (function
        | None -> ()
        | Some n ->
          let rewritten = List.filter_map (chase_to_node t) n.succs in
          n.succs <-
            List.rev
              (List.fold_left
                 (fun acc s -> if List.mem s acc then acc else s :: acc)
                 [] rewritten))
      t.nodes;
  (* Count each block at most once across repeated reductions. *)
  List.iter
    (fun i ->
      if not t.removed.(i) then begin
        t.removed.(i) <- true;
        t.reduced <- t.reduced + 1
      end)
    removable;
  List.length removable

let validate t =
  Validate.check_graph t.program
    ~nodes:
      (List.map
         (fun n -> (n.bref, n.succs))
         (List.sort (fun a b -> Program.bref_compare a.bref b.bref) (nodes t)))
    ~pass_through:(fun (b : Block.t) -> lift_dsod b.Block.stmts = [])

let pp_stats ppf t =
  let count p = List.length (List.filter p (nodes t)) in
  let conds = count (fun n -> match n.term with Term.Branch _ -> true | _ -> false) in
  let one_sided =
    count (fun n ->
        match n.term with
        | Term.Branch _ -> (n.taken = 0) <> (n.not_taken = 0)
        | _ -> false)
  in
  Format.fprintf ppf
    "es-cfg %s: %d nodes (%d reduced away), %d conditionals (%d one-sided), %d commands, %d sync points"
    (Program.name t.program) (node_count t) t.reduced conds one_sided
    (List.length (commands t))
    (List.length (sync_points t))

let import_node t bref ~visits ~taken ~not_taken ~cases ~itargets ~succs =
  t.foldable <- false;
  let n = get_node t (Program.index_of t.program bref) in
  n.visits <- visits;
  n.taken <- taken;
  n.not_taken <- not_taken;
  n.cases <- cases;
  n.itargets <- itargets;
  n.succs <- succs

let reduced_count t = t.reduced

let import_access t ~cmd bref =
  let i = Program.index_of t.program bref in
  match cmd with
  | None -> t.no_cmd.(i) <- true
  | Some key -> (access_set t key).(i) <- true
