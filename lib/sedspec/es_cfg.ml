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

(* Membership keys for the NBTD edge lists.  The lists themselves stay in
   insertion order on the nodes; this auxiliary table makes the
   once-per-observation membership test O(1) instead of scanning the list
   on every single visit (quadratic over a training log). *)
type edge =
  | E_succ of Program.bref * Program.bref
  | E_case of Program.bref * int64 * string
  | E_itarget of Program.bref * int64

(* Where a spec's learned content came from.  [Trained] is the one-shot
   paper pipeline; the others are evolution derivations — the revision
   counter orders them so the rollout ladder can pin and roll back. *)
type provenance = Trained | Retrained of int

type t = {
  program : Program.t;
  selection : Selection.t;
  mutable revision : int;
  mutable provenance : provenance;
  nodes : (Program.bref, node) Hashtbl.t;
  cmd_table : (cmd_key, (Program.bref, unit) Hashtbl.t) Hashtbl.t;
  no_cmd : (Program.bref, unit) Hashtbl.t;
  seen : (edge, unit) Hashtbl.t;
  removed : (Program.bref, unit) Hashtbl.t;
      (** Brefs ever removed by {!reduce} — makes the [reduced] counter
          idempotent across repeated reductions of the same blocks. *)
  mutable reduced : int;
}

let create ~program ~selection =
  {
    program;
    selection;
    revision = 0;
    provenance = Trained;
    nodes = Hashtbl.create 128;
    cmd_table = Hashtbl.create 32;
    no_cmd = Hashtbl.create 64;
    seen = Hashtbl.create 256;
    removed = Hashtbl.create 16;
    reduced = 0;
  }

let first_sight t edge =
  if Hashtbl.mem t.seen edge then false
  else begin
    Hashtbl.add t.seen edge ();
    true
  end

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

let get_node t bref =
  match Hashtbl.find_opt t.nodes bref with
  | Some n -> n
  | None ->
    let block = Program.find_block t.program bref in
    let n =
      {
        bref;
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
    Hashtbl.add t.nodes bref n;
    n

(* Command context during construction (and mirrored by the checker). *)
type ctx = Ctx_none | Ctx_cmd of cmd_key

let access_set t key =
  match Hashtbl.find_opt t.cmd_table key with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 16 in
    Hashtbl.add t.cmd_table key set;
    set

let record_access t ctx bref =
  match ctx with
  | Ctx_none -> Hashtbl.replace t.no_cmd bref ()
  | Ctx_cmd key -> Hashtbl.replace (access_set t key) bref ()

(* Restore one interaction's full block path from its observation entries
   and fold it into the graph.  Returns the command context after the
   interaction. *)
let add_interaction t ctx (i : Ds_log.interaction) =
  let ctx = ref ctx in
  let entries = ref i.entries in
  let pop_entry (bref : Program.bref) =
    match !entries with
    | e :: rest when Program.bref_equal e.Interp.Event.block bref ->
      entries := rest;
      Some e
    | _ -> None
  in
  let prev : node option ref = ref None in
  let link (n : node) =
    (match !prev with
    | Some p ->
      if first_sight t (E_succ (p.bref, n.bref)) then
        p.succs <- p.succs @ [ n.bref ]
    | None -> ());
    prev := Some n
  in
  (* Walk the source from the handler entry, consuming observation entries
     at the observation points; gaps are deterministic. *)
  let rec walk (bref : Program.bref) stack fuel =
    if fuel <= 0 then ()
    else
      let n = get_node t bref in
      n.visits <- n.visits + 1;
      record_access t !ctx bref;
      link n;
      let sibling label : Program.bref = { handler = bref.handler; label } in
      let entry = pop_entry bref in
      match n.term with
      | Term.Goto l ->
        if n.kind = Block.Cmd_end then ctx := Ctx_none;
        walk (sibling l) stack (fuel - 1)
      | Term.Halt -> (
        if n.kind = Block.Cmd_end then ctx := Ctx_none;
        match stack with
        | cont :: rest -> walk cont rest (fuel - 1)
        | [] -> ())
      | Term.Branch (_, if_taken, if_not) -> (
        match entry with
        | Some { Interp.Event.outcome = Interp.Event.O_taken; _ } ->
          n.taken <- n.taken + 1;
          if n.kind = Block.Cmd_end then ctx := Ctx_none;
          walk (sibling if_taken) stack (fuel - 1)
        | Some { Interp.Event.outcome = Interp.Event.O_not_taken; _ } ->
          n.not_taken <- n.not_taken + 1;
          if n.kind = Block.Cmd_end then ctx := Ctx_none;
          walk (sibling if_not) stack (fuel - 1)
        | _ -> (* truncated log (trapped interaction): stop the path *) ())
      | Term.Switch (_, _, _) -> (
        match entry with
        | Some { Interp.Event.outcome = Interp.Event.O_case (v, dest); _ } ->
          if first_sight t (E_case (bref, v, dest)) then
            n.cases <- n.cases @ [ (v, dest) ];
          if n.kind = Block.Cmd_decision then ctx := Ctx_cmd (bref, v);
          if n.kind = Block.Cmd_end then ctx := Ctx_none;
          walk (sibling dest) stack (fuel - 1)
        | _ -> ())
      | Term.Icall (_, next) -> (
        match entry with
        | Some { Interp.Event.outcome = Interp.Event.O_icall v; _ } -> (
          if first_sight t (E_itarget (bref, v)) then
            n.itargets <- n.itargets @ [ v ];
          if n.kind = Block.Cmd_end then ctx := Ctx_none;
          let continue_at = sibling next in
          match Program.find_callback t.program v with
          | Some { Program.action = Program.Run_handler callee; _ } ->
            let callee_entry : Program.bref =
              match (Program.find_handler t.program callee).blocks with
              | b :: _ -> { handler = callee; label = b.Block.label }
              | [] -> continue_at
            in
            walk callee_entry (continue_at :: stack) (fuel - 1)
          | Some _ -> walk continue_at stack (fuel - 1)
          | None -> ())
        | _ -> ())
  in
  let entry_bref : Program.bref =
    match (Program.find_handler t.program i.handler).blocks with
    | b :: _ -> { handler = i.handler; label = b.Block.label }
    | [] -> invalid_arg "Es_cfg.add_interaction: empty handler"
  in
  walk entry_bref [] 1_000_000;
  !ctx

let case_start = Ctx_none

let program t = t.program
let selection t = t.selection
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

let node t bref = Hashtbl.find_opt t.nodes bref

let nodes t =
  let all = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes [] in
  List.sort
    (fun a b ->
      Int64.compare
        (Program.address_of t.program a.bref)
        (Program.address_of t.program b.bref))
    all

let node_count t = Hashtbl.length t.nodes

let entry_of t handler : Program.bref =
  match (Program.find_handler t.program handler).blocks with
  | b :: _ -> { handler; label = b.Block.label }
  | [] -> invalid_arg "Es_cfg.entry_of: empty handler"

let cmd_known t key = Hashtbl.mem t.cmd_table key

let cmd_allows t key bref =
  match Hashtbl.find_opt t.cmd_table key with
  | Some set -> Hashtbl.mem set bref
  | None -> false

let no_cmd_allows t bref = Hashtbl.mem t.no_cmd bref

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
    (Hashtbl.fold
       (fun bref n acc ->
         if n.sync_locals <> [] then (bref, n.sync_locals) :: acc else acc)
       t.nodes [])

let access_entries t =
  let sorted_members set =
    List.sort Program.bref_compare
      (Hashtbl.fold (fun b () acc -> b :: acc) set [])
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
  let rec go (bref : Program.bref) fuel =
    if Hashtbl.mem t.nodes bref then Some bref
    else if fuel = 0 then None
    else
      match Program.find_block t.program bref with
      | exception Not_found -> None
      | block -> (
        if lift_dsod block.Block.stmts <> [] then None
        else
          match block.Block.term with
          | Term.Goto l -> go { Program.handler = bref.handler; label = l } (fuel - 1)
          | _ -> None)
  in
  go start 1024

let reduce t =
  let removable =
    Hashtbl.fold
      (fun bref n acc ->
        match (n.kind, n.dsod, n.term) with
        | Block.Normal, [], Term.Goto _ -> bref :: acc
        | _ -> acc)
      t.nodes []
  in
  List.iter (Hashtbl.remove t.nodes) removable;
  (* Drop membership entries sourced at removed nodes so a later fold
     that recreates one starts from its (empty) lists consistently. *)
  if removable <> [] then begin
    let gone = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace gone b ()) removable;
    Hashtbl.filter_map_inplace
      (fun edge () ->
        let src =
          match edge with
          | E_succ (src, _) | E_case (src, _, _) | E_itarget (src, _) -> src
        in
        if Hashtbl.mem gone src then None else Some ())
      t.seen;
    (* Rewrite surviving nodes' successor edges through the removed
       blocks: an NBTD edge into a reduced-away block would otherwise
       dangle.  The chase mirrors the walker's pass-through rule. *)
    Hashtbl.iter
      (fun _ n ->
        let rewritten =
          List.filter_map
            (fun s ->
              if Hashtbl.mem t.nodes s then Some s else chase_to_node t s)
            n.succs
        in
        let dedup =
          List.rev
            (List.fold_left
               (fun acc s -> if List.mem s acc then acc else s :: acc)
               [] rewritten)
        in
        List.iter
          (fun s -> Hashtbl.replace t.seen (E_succ (n.bref, s)) ())
          dedup;
        n.succs <- dedup)
      t.nodes
  end;
  (* Count each bref at most once across repeated reductions. *)
  let fresh =
    List.filter (fun b -> not (Hashtbl.mem t.removed b)) removable
  in
  List.iter (fun b -> Hashtbl.replace t.removed b ()) fresh;
  t.reduced <- t.reduced + List.length fresh;
  List.length removable

let validate t =
  Validate.check_graph t.program
    ~nodes:
      (List.map
         (fun n -> (n.bref, n.succs))
         (List.sort
            (fun a b -> Program.bref_compare a.bref b.bref)
            (Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes [])))
    ~pass_through:(fun (b : Block.t) -> lift_dsod b.Block.stmts = [])

let pp_stats ppf t =
  let conds =
    Hashtbl.fold
      (fun _ n acc -> match n.term with Term.Branch _ -> acc + 1 | _ -> acc)
      t.nodes 0
  in
  let one_sided =
    Hashtbl.fold
      (fun _ n acc ->
        match n.term with
        | Term.Branch _ when (n.taken = 0) <> (n.not_taken = 0) -> acc + 1
        | _ -> acc)
      t.nodes 0
  in
  Format.fprintf ppf
    "es-cfg %s: %d nodes (%d reduced away), %d conditionals (%d one-sided), %d commands, %d sync points"
    (Program.name t.program) (node_count t) t.reduced conds one_sided
    (List.length (commands t))
    (List.length (sync_points t))

let import_node t bref ~visits ~taken ~not_taken ~cases ~itargets ~succs =
  let n = get_node t bref in
  n.visits <- visits;
  n.taken <- taken;
  n.not_taken <- not_taken;
  n.cases <- cases;
  n.itargets <- itargets;
  n.succs <- succs;
  (* Seed the membership table so further training on an imported spec
     does not duplicate edges. *)
  List.iter (fun (v, d) -> Hashtbl.replace t.seen (E_case (bref, v, d)) ()) cases;
  List.iter (fun v -> Hashtbl.replace t.seen (E_itarget (bref, v)) ()) itargets;
  List.iter (fun s -> Hashtbl.replace t.seen (E_succ (bref, s)) ()) succs

let reduced_count t = t.reduced

let import_access t ~cmd bref =
  match cmd with
  | None -> Hashtbl.replace t.no_cmd bref ()
  | Some key -> Hashtbl.replace (access_set t key) bref ()
