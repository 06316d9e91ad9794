open Devir
module Json = Sedspec_util.Json

(* Structural diff of two ES-CFGs.  The diff is keyed by bref
   (handler/label strings), so it works across device versions and
   across independently trained specs. *)

type envelope_change = {
  e_bref : Program.bref;
  e_new_taken : bool;  (** Candidate adds taken evidence the base lacks. *)
  e_new_not_taken : bool;
  e_new_cases : (int64 * string) list;
  e_gone_cases : (int64 * string) list;
  e_new_itargets : int64 list;
  e_gone_itargets : int64 list;
  e_new_succs : Program.bref list;
  e_gone_succs : Program.bref list;
}

type diff = {
  base_revision : int;
  base_provenance : Es_cfg.provenance;
  cand_revision : int;
  cand_provenance : Es_cfg.provenance;
  base_nodes : int;
  cand_nodes : int;
  added_nodes : Program.bref list;
  removed_nodes : Program.bref list;
  reenveloped : envelope_change list;
  added_cmds : Es_cfg.cmd_key list;
  removed_cmds : Es_cfg.cmd_key list;
  added_access : (Es_cfg.cmd_key option * Program.bref) list;
  removed_access : (Es_cfg.cmd_key option * Program.bref) list;
  added_syncs : (Program.bref * string list) list;
  removed_syncs : (Program.bref * string list) list;
}

let sort_brefs = List.sort Program.bref_compare

let diff_list ~cmp xs ys =
  (* Elements of [ys] not in [xs], preserving [ys]'s (sorted) order. *)
  List.filter (fun y -> not (List.exists (fun x -> cmp x y = 0) xs)) ys

let envelope_change (b : Es_cfg.node) (c : Es_cfg.node) =
  let case_cmp (va, la) (vb, lb) =
    match Int64.compare va vb with 0 -> String.compare la lb | n -> n
  in
  let ch =
    {
      e_bref = b.Es_cfg.bref;
      e_new_taken = b.Es_cfg.taken = 0 && c.Es_cfg.taken > 0;
      e_new_not_taken = b.Es_cfg.not_taken = 0 && c.Es_cfg.not_taken > 0;
      e_new_cases =
        List.sort case_cmp (diff_list ~cmp:case_cmp b.Es_cfg.cases c.Es_cfg.cases);
      e_gone_cases =
        List.sort case_cmp (diff_list ~cmp:case_cmp c.Es_cfg.cases b.Es_cfg.cases);
      e_new_itargets =
        List.sort Int64.compare
          (diff_list ~cmp:Int64.compare b.Es_cfg.itargets c.Es_cfg.itargets);
      e_gone_itargets =
        List.sort Int64.compare
          (diff_list ~cmp:Int64.compare c.Es_cfg.itargets b.Es_cfg.itargets);
      e_new_succs =
        sort_brefs
          (diff_list ~cmp:Program.bref_compare b.Es_cfg.succs c.Es_cfg.succs);
      e_gone_succs =
        sort_brefs
          (diff_list ~cmp:Program.bref_compare c.Es_cfg.succs b.Es_cfg.succs);
    }
  in
  if
    ch.e_new_taken || ch.e_new_not_taken || ch.e_new_cases <> []
    || ch.e_gone_cases <> [] || ch.e_new_itargets <> []
    || ch.e_gone_itargets <> [] || ch.e_new_succs <> []
    || ch.e_gone_succs <> []
  then Some ch
  else None

let access_cmp (ca, ba) (cb, bb) =
  let c =
    match (ca, cb) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some ka, Some kb -> Es_cfg.cmd_key_compare ka kb
  in
  match c with 0 -> Program.bref_compare ba bb | n -> n

let sync_cmp (ba, _) (bb, _) = Program.bref_compare ba bb

let diff ~base ~cand =
  let base_nodes = Es_cfg.nodes base and cand_nodes = Es_cfg.nodes cand in
  let base_brefs = List.map (fun (n : Es_cfg.node) -> n.Es_cfg.bref) base_nodes in
  let cand_brefs = List.map (fun (n : Es_cfg.node) -> n.Es_cfg.bref) cand_nodes in
  let reenveloped =
    List.filter_map
      (fun (b : Es_cfg.node) ->
        match Es_cfg.node cand b.Es_cfg.bref with
        | Some c -> envelope_change b c
        | None -> None)
      base_nodes
  in
  let sync_delta a b =
    (* A sync point counts as changed when its local set changes, too:
       report it as removed+added. *)
    List.filter
      (fun (bref, locals) ->
        match List.find_opt (fun (b', _) -> Program.bref_equal b' bref) a with
        | Some (_, locals') -> locals <> locals'
        | None -> true)
      b
  in
  let base_sync = Es_cfg.sync_points base and cand_sync = Es_cfg.sync_points cand in
  let base_access = Es_cfg.access_entries base in
  let cand_access = Es_cfg.access_entries cand in
  {
    base_revision = Es_cfg.revision base;
    base_provenance = Es_cfg.provenance base;
    cand_revision = Es_cfg.revision cand;
    cand_provenance = Es_cfg.provenance cand;
    base_nodes = Es_cfg.node_count base;
    cand_nodes = Es_cfg.node_count cand;
    added_nodes =
      sort_brefs (diff_list ~cmp:Program.bref_compare base_brefs cand_brefs);
    removed_nodes =
      sort_brefs (diff_list ~cmp:Program.bref_compare cand_brefs base_brefs);
    reenveloped =
      List.sort
        (fun a b -> Program.bref_compare a.e_bref b.e_bref)
        reenveloped;
    added_cmds =
      List.sort Es_cfg.cmd_key_compare
        (diff_list ~cmp:Es_cfg.cmd_key_compare (Es_cfg.commands base)
           (Es_cfg.commands cand));
    removed_cmds =
      List.sort Es_cfg.cmd_key_compare
        (diff_list ~cmp:Es_cfg.cmd_key_compare (Es_cfg.commands cand)
           (Es_cfg.commands base));
    added_access =
      List.sort access_cmp (diff_list ~cmp:access_cmp base_access cand_access);
    removed_access =
      List.sort access_cmp (diff_list ~cmp:access_cmp cand_access base_access);
    added_syncs = List.sort sync_cmp (sync_delta base_sync cand_sync);
    removed_syncs = List.sort sync_cmp (sync_delta cand_sync base_sync);
  }

let is_empty d =
  d.added_nodes = [] && d.removed_nodes = [] && d.reenveloped = []
  && d.added_cmds = [] && d.removed_cmds = [] && d.added_access = []
  && d.removed_access = [] && d.added_syncs = [] && d.removed_syncs = []

let change_count d =
  List.length d.added_nodes + List.length d.removed_nodes
  + List.length d.reenveloped + List.length d.added_cmds
  + List.length d.removed_cmds + List.length d.added_access
  + List.length d.removed_access + List.length d.added_syncs
  + List.length d.removed_syncs

(* --- Rendering ----------------------------------------------------------- *)

let bref_str (b : Program.bref) = b.handler ^ "/" ^ b.label
let cmd_str ((d, v) : Es_cfg.cmd_key) = Printf.sprintf "%s=0x%Lx" (bref_str d) v

let access_str (cmd, bref) =
  match cmd with
  | None -> Printf.sprintf "nocmd:%s" (bref_str bref)
  | Some key -> Printf.sprintf "%s:%s" (cmd_str key) (bref_str bref)

let sync_str (bref, locals) =
  Printf.sprintf "%s[%s]" (bref_str bref) (String.concat "," locals)

let envelope_str ch =
  let parts =
    (if ch.e_new_taken then [ "+taken" ] else [])
    @ (if ch.e_new_not_taken then [ "+not-taken" ] else [])
    @ List.map (fun (v, l) -> Printf.sprintf "+case 0x%Lx->%s" v l) ch.e_new_cases
    @ List.map (fun (v, l) -> Printf.sprintf "-case 0x%Lx->%s" v l) ch.e_gone_cases
    @ List.map (fun v -> Printf.sprintf "+itarget 0x%Lx" v) ch.e_new_itargets
    @ List.map (fun v -> Printf.sprintf "-itarget 0x%Lx" v) ch.e_gone_itargets
    @ List.map (fun s -> "+succ " ^ bref_str s) ch.e_new_succs
    @ List.map (fun s -> "-succ " ^ bref_str s) ch.e_gone_succs
  in
  String.concat " " parts

let diff_to_json d =
  let strs f l = Json.List (List.map (fun x -> Json.Str (f x)) l) in
  Json.Obj
    [
      ( "base",
        Json.Obj
          [
            ("revision", Json.Int d.base_revision);
            ( "provenance",
              Json.Str (Es_cfg.provenance_to_string d.base_provenance) );
            ("nodes", Json.Int d.base_nodes);
          ] );
      ( "candidate",
        Json.Obj
          [
            ("revision", Json.Int d.cand_revision);
            ( "provenance",
              Json.Str (Es_cfg.provenance_to_string d.cand_provenance) );
            ("nodes", Json.Int d.cand_nodes);
          ] );
      ("empty", Json.Bool (is_empty d));
      ("changes", Json.Int (change_count d));
      ("added_nodes", strs bref_str d.added_nodes);
      ("removed_nodes", strs bref_str d.removed_nodes);
      ( "reenveloped",
        Json.List
          (List.map
             (fun ch ->
               Json.Obj
                 [
                   ("node", Json.Str (bref_str ch.e_bref));
                   ("change", Json.Str (envelope_str ch));
                 ])
             d.reenveloped) );
      ("added_commands", strs cmd_str d.added_cmds);
      ("removed_commands", strs cmd_str d.removed_cmds);
      ("added_access", strs access_str d.added_access);
      ("removed_access", strs access_str d.removed_access);
      ("added_sync_points", strs sync_str d.added_syncs);
      ("removed_sync_points", strs sync_str d.removed_syncs);
    ]
