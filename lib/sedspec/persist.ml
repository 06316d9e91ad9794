open Devir

let magic = "sedspec-spec v1"

let rule_to_tag = function
  | Selection.Rule1_hw_register -> "rule1"
  | Selection.Rule2_buffer -> "rule2buf"
  | Selection.Rule2_index -> "rule2idx"
  | Selection.Rule2_fn_ptr -> "rule2fn"
  | Selection.Branch_influencer -> "branch"
  | Selection.Dependency -> "dep"

let rule_of_tag = function
  | "rule1" -> Some Selection.Rule1_hw_register
  | "rule2buf" -> Some Selection.Rule2_buffer
  | "rule2idx" -> Some Selection.Rule2_index
  | "rule2fn" -> Some Selection.Rule2_fn_ptr
  | "branch" -> Some Selection.Branch_influencer
  | "dep" -> Some Selection.Dependency
  | _ -> None

(* The format is line- and word-oriented: names are separated by spaces,
   list entries by commas, buffer entries use ':' for the size.  A name
   containing any of those separators (or a newline) would round-trip
   into a different spec — or a parse error — with no warning, so saving
   validates every name first. *)

let name_ok ?(extra = []) s =
  s <> ""
  && String.for_all
       (fun c ->
         not (List.mem c ([ ' '; ','; '\n'; '\r'; '\t' ] @ extra)))
       s

let validate_names spec =
  let bad = ref [] in
  let check what ?extra s = if not (name_ok ?extra s) then bad := (what, s) :: !bad in
  let check_bref what (b : Program.bref) =
    check (what ^ " handler") b.handler;
    check (what ^ " label") b.label
  in
  let program = Es_cfg.program spec in
  let sel = Es_cfg.selection spec in
  check "program name" (Program.name program);
  List.iter (check "scalar") sel.Selection.scalars;
  List.iter (fun (b, _) -> check "buffer" ~extra:[ ':' ] b) sel.Selection.buffers;
  List.iter (check "fn-ptr") sel.Selection.fn_ptrs;
  List.iter (check "index param") sel.Selection.index_params;
  List.iter (check "tracked buffer") sel.Selection.tracked_buffers;
  List.iter (fun (n, _) -> check "rationale name" n) sel.Selection.rationale;
  List.iter
    (fun (n : Es_cfg.node) ->
      check_bref "node" n.bref;
      List.iter (fun (_, l) -> check "case label" l) n.cases;
      List.iter (check_bref "successor") n.succs)
    (Es_cfg.nodes spec);
  List.iter (fun (d, _) -> check_bref "command" d) (Es_cfg.commands spec);
  match !bad with
  | [] -> Ok ()
  | (what, s) :: _ ->
    Error
      (Printf.sprintf
         "unpersistable %s %S: names must be non-empty and free of \
          spaces, commas and newlines"
         what s)

let to_string spec =
  (match validate_names spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Persist.to_string: " ^ msg));
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let program = Es_cfg.program spec in
  let sel = Es_cfg.selection spec in
  pf "%s\n" magic;
  pf "program %s\n" (Program.name program);
  (* The version line is omitted for a pristine trained revision 0, so a
     spec that never evolved serialises byte-identically to files written
     before versioning existed — and legacy files parse as exactly that
     state. *)
  (match (Es_cfg.revision spec, Es_cfg.provenance spec) with
  | 0, Es_cfg.Trained -> ()
  | rev, prov ->
    pf "revision %d %s\n" rev (Es_cfg.provenance_to_string prov));
  pf "selection scalars %s\n" (String.concat "," sel.Selection.scalars);
  pf "selection buffers %s\n"
    (String.concat ","
       (List.map (fun (b, n) -> Printf.sprintf "%s:%d" b n) sel.Selection.buffers));
  pf "selection fnptrs %s\n" (String.concat "," sel.Selection.fn_ptrs);
  pf "selection index %s\n" (String.concat "," sel.Selection.index_params);
  pf "selection tracked %s\n" (String.concat "," sel.Selection.tracked_buffers);
  List.iter
    (fun (name, rules) ->
      pf "rationale %s %s\n" name
        (String.concat "," (List.map rule_to_tag rules)))
    sel.Selection.rationale;
  List.iter
    (fun (n : Es_cfg.node) ->
      pf "node %s %s %d %d %d\n" n.bref.handler n.bref.label n.visits n.taken
        n.not_taken;
      List.iter (fun (v, l) -> pf "  case %Ld %s\n" v l) n.cases;
      List.iter (fun v -> pf "  itarget %Ld\n" v) n.itargets;
      List.iter
        (fun (s : Program.bref) -> pf "  succ %s %s\n" s.handler s.label)
        n.succs)
    (Es_cfg.nodes spec);
  List.iter
    (fun (((d : Program.bref), v) as key) ->
      pf "cmd %s %s %Ld\n" d.handler d.label v;
      Program.iter_blocks program (fun bref _ ->
          if Es_cfg.cmd_allows spec key bref then
            pf "  allow %s %s\n" bref.handler bref.label))
    (List.sort compare (Es_cfg.commands spec));
  Program.iter_blocks program (fun bref _ ->
      if Es_cfg.no_cmd_allows spec bref then
        pf "nocmd %s %s\n" bref.handler bref.label);
  pf "end\n";
  (* Integrity trailer over the canonical body (everything up to and
     including the [end] line).  A bit flip or truncation anywhere in the
     body fails the digest on load instead of round-tripping into a
     semantically different spec. *)
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "crc %s\n" Sedspec_util.Crc.(to_hex (crc32 body))

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let split_commas s =
  if String.trim s = "" then [] else String.split_on_char ',' (String.trim s)

(* Split a possible [crc] trailer off the raw text.  The trailer is the
   last non-empty physical line when it starts with the word [crc]; the
   digest covers every byte before that line.  Files from before the
   trailer existed simply do not have one and skip verification.  (No
   body line can be mistaken for the trailer: top-level lines start with
   a fixed keyword set and continuation lines are indented.) *)
let split_trailer text =
  let rec last_line pos acc =
    (* (start offset, contents) of the last non-empty line. *)
    match String.index_from_opt text pos '\n' with
    | Some nl ->
      let seg = String.sub text pos (nl - pos) in
      last_line (nl + 1) (if String.trim seg = "" then acc else Some (pos, seg))
    | None ->
      let seg = String.sub text pos (String.length text - pos) in
      if String.trim seg = "" then acc else Some (pos, seg)
  in
  let words seg =
    String.split_on_char ' ' (String.trim seg) |> List.filter (fun w -> w <> "")
  in
  match last_line 0 None with
  | Some (pos, seg) when (match words seg with "crc" :: _ -> true | _ -> false) ->
    let body = String.sub text 0 pos in
    (match words seg with
    | [ "crc"; v ] -> (
      match Sedspec_util.Crc.of_hex v with
      | Some stored when stored = Sedspec_util.Crc.crc32 body -> body
      | Some _ -> fail "crc mismatch: spec file is corrupt or truncated"
      | None -> fail "malformed crc trailer %S" (String.trim seg))
    | _ -> fail "malformed crc trailer %S" (String.trim seg))
  | _ -> text

let of_string ~program text =
  try
    let text = split_trailer text in
    let lines =
      text |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> "")
    in
    let lines =
      match lines with
      | l :: rest when String.trim l = magic -> rest
      | _ -> fail "missing magic header %S" magic
    in
    let sel =
      ref
        {
          Selection.scalars = [];
          buffers = [];
          fn_ptrs = [];
          index_params = [];
          tracked_buffers = [];
          rationale = [];
        }
    in
    let spec = ref None in
    let get_spec () =
      match !spec with
      | Some s -> s
      | None ->
        (* Rationale lines were accumulated in reverse (consing is linear
           where append-per-line is quadratic); restore file order when
           the selection is frozen into the spec. *)
        let s =
          Es_cfg.create ~program
            ~selection:
              { !sel with Selection.rationale = List.rev !sel.Selection.rationale }
        in
        spec := Some s;
        s
    in
    let version : (int * Es_cfg.provenance) option ref = ref None in
    let current_node : Program.bref option ref = ref None in
    let node_acc = Hashtbl.create 64 in
    let current_cmd : Es_cfg.cmd_key option option ref = ref None in
    let bref h l : Program.bref = { handler = h; label = l } in
    let check_block b =
      try ignore (Program.find_block program b)
      with Not_found -> fail "unknown block %s/%s" b.Program.handler b.Program.label
    in
    let flush_node () =
      match !current_node with
      | None -> ()
      | Some b ->
        let visits, taken, not_taken, cases, itargets, succs =
          Hashtbl.find node_acc b
        in
        Es_cfg.import_node (get_spec ()) b ~visits ~taken ~not_taken
          ~cases:(List.rev cases) ~itargets:(List.rev itargets)
          ~succs:(List.rev succs);
        current_node := None
    in
    let saw_end = ref false in
    List.iter
      (fun line ->
        (* [end] is a terminator, not a separator: trailing content would
           mean the file was spliced or corrupted, and accepting it is
           how a truncated-then-concatenated spec goes undetected. *)
        if !saw_end then fail "content after end line: %S" line;
        let indented = String.length line > 0 && line.[0] = ' ' in
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun w -> w <> "")
        in
        match (indented, words) with
        | false, [ "program"; name ] ->
          if name <> Program.name program then
            fail "spec is for program %s, not %s" name (Program.name program)
        | false, [ "revision"; rev; prov ] -> (
          (* Stashed, not applied: [get_spec] freezes the selection, and
             the revision line precedes the selection lines. *)
          let rev =
            match int_of_string_opt rev with
            | Some r when r >= 0 -> r
            | _ -> fail "bad revision number %S" rev
          in
          match Es_cfg.provenance_of_string prov with
          | Some p -> version := Some (rev, p)
          | None -> fail "unknown provenance tag %S" prov)
        | false, "selection" :: "scalars" :: rest ->
          sel := { !sel with Selection.scalars = split_commas (String.concat " " rest) }
        | false, "selection" :: "buffers" :: rest ->
          let buffers =
            List.map
              (fun item ->
                match String.split_on_char ':' item with
                | [ b; n ] -> (b, int_of_string n)
                | _ -> fail "bad buffer entry %s" item)
              (split_commas (String.concat " " rest))
          in
          sel := { !sel with Selection.buffers }
        | false, "selection" :: "fnptrs" :: rest ->
          sel := { !sel with Selection.fn_ptrs = split_commas (String.concat " " rest) }
        | false, "selection" :: "index" :: rest ->
          sel :=
            { !sel with Selection.index_params = split_commas (String.concat " " rest) }
        | false, "selection" :: "tracked" :: rest ->
          sel :=
            {
              !sel with
              Selection.tracked_buffers = split_commas (String.concat " " rest);
            }
        | false, [ "rationale"; name; tags ] ->
          let rules = List.filter_map rule_of_tag (split_commas tags) in
          sel := { !sel with Selection.rationale = (name, rules) :: !sel.Selection.rationale }
        | false, [ "node"; h; l; visits; taken; not_taken ] ->
          flush_node ();
          (* A node line ends any open cmd block; a stray allow after it
             must fail instead of silently extending the previous
             command's access set. *)
          current_cmd := None;
          let b = bref h l in
          check_block b;
          current_node := Some b;
          Hashtbl.replace node_acc b
            (int_of_string visits, int_of_string taken, int_of_string not_taken,
             [], [], [])
        | true, [ "case"; v; l ] -> (
          match !current_node with
          | Some b ->
            let vi, ta, nt, cases, its, sc = Hashtbl.find node_acc b in
            Hashtbl.replace node_acc b
              (vi, ta, nt, (Int64.of_string v, l) :: cases, its, sc)
          | None -> fail "case outside node")
        | true, [ "itarget"; v ] -> (
          match !current_node with
          | Some b ->
            let vi, ta, nt, cases, its, sc = Hashtbl.find node_acc b in
            Hashtbl.replace node_acc b (vi, ta, nt, cases, Int64.of_string v :: its, sc)
          | None -> fail "itarget outside node")
        | true, [ "succ"; h; l ] -> (
          match !current_node with
          | Some b ->
            let vi, ta, nt, cases, its, sc = Hashtbl.find node_acc b in
            Hashtbl.replace node_acc b (vi, ta, nt, cases, its, bref h l :: sc)
          | None -> fail "succ outside node")
        | false, [ "cmd"; h; l; v ] ->
          flush_node ();
          let d = bref h l in
          check_block d;
          current_cmd := Some (Some (d, Int64.of_string v))
        | true, [ "allow"; h; l ] -> (
          match !current_cmd with
          | Some cmd ->
            let b = bref h l in
            check_block b;
            Es_cfg.import_access (get_spec ()) ~cmd b
          | None -> fail "allow outside cmd")
        | false, [ "nocmd"; h; l ] ->
          flush_node ();
          current_cmd := None;
          let b = bref h l in
          check_block b;
          Es_cfg.import_access (get_spec ()) ~cmd:None b
        | false, [ "end" ] ->
          flush_node ();
          current_cmd := None;
          saw_end := true
        | _ -> fail "unparseable line %S" line)
      lines;
    if not !saw_end then
      fail "missing end line: spec file is truncated";
    flush_node ();
    (match !version with
    | Some (revision, provenance) ->
      Es_cfg.set_version (get_spec ()) ~revision ~provenance
    | None -> ());
    Ok (get_spec ())
  with
  | Parse_error msg -> Error msg
  | Failure msg -> Error msg

let save spec path =
  match validate_names spec with
  | Error _ as e -> e
  | Ok () -> (
    match Sedspec_util.Atomic_file.write path (to_string spec) with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg)

let load ~program path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string ~program text
