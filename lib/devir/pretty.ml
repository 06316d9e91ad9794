let layout_to_buf buf layout =
  Buffer.add_string buf "struct control_structure {\n";
  List.iter
    (fun (f : Layout.field) ->
      let decl =
        match f.kind with
        | Layout.Reg w ->
          Printf.sprintf "  uint%d_t %s;%s" (Width.bits w) f.name
            (if f.hw_register then "  /* hw register */" else "")
        | Layout.Buf n -> Printf.sprintf "  uint8_t %s[%d];" f.name n
        | Layout.Fn_ptr -> Printf.sprintf "  void (*%s)(void);" f.name
      in
      Buffer.add_string buf decl;
      if f.init <> 0L then
        Buffer.add_string buf (Printf.sprintf "  /* init: 0x%Lx */" f.init);
      Buffer.add_char buf '\n')
    (Layout.fields layout);
  Buffer.add_string buf "};\n"

let term_lines (t : Term.t) =
  match t with
  | Term.Goto l -> [ Printf.sprintf "goto %s;" l ]
  | Term.Branch (e, a, b) ->
    [ Printf.sprintf "if (%s) goto %s; else goto %s;" (Expr.to_string e) a b ]
  | Term.Switch (e, cases, d) ->
    (Printf.sprintf "switch (%s) {" (Expr.to_string e))
    :: List.map (fun (v, l) -> Printf.sprintf "  case 0x%Lx: goto %s;" v l) cases
    @ [ Printf.sprintf "  default: goto %s;" d; "}" ]
  | Term.Icall (e, next) ->
    [
      Printf.sprintf "(*%s)();  /* indirect */" (Expr.to_string e);
      Printf.sprintf "goto %s;" next;
    ]
  | Term.Halt -> [ "return;" ]

let handler_to_string program (h : Program.handler) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "void %s(%s)\n{\n" h.hname
       (if h.params = [] then "void"
        else String.concat ", " (List.map (fun p -> "uint64_t " ^ p) h.params)));
  List.iter
    (fun (b : Block.t) ->
      let bref : Program.bref = { handler = h.hname; label = b.label } in
      Buffer.add_string buf
        (Printf.sprintf "%s:  /* %s @ 0x%Lx */\n" b.label
           (Block.kind_to_string b.kind)
           (Program.address_of program bref));
      List.iter
        (fun stmt ->
          Buffer.add_string buf ("  " ^ Stmt.to_string stmt ^ ";\n"))
        b.stmts;
      List.iter (fun l -> Buffer.add_string buf ("  " ^ l ^ "\n")) (term_lines b.term))
    h.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program_to_string program =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "/* device: %s */\n\n" (Program.name program));
  layout_to_buf buf (Program.layout program);
  Buffer.add_char buf '\n';
  (match Program.callbacks program with
  | [] -> ()
  | callbacks ->
    Buffer.add_string buf "/* callback table */\n";
    List.iter
      (fun (v, (cb : Program.callback)) ->
        let action =
          match cb.action with
          | Program.Raise_irq_line -> "raise irq"
          | Program.Lower_irq_line -> "lower irq"
          | Program.Run_handler h -> "run " ^ h
          | Program.Noop -> "noop"
        in
        Buffer.add_string buf (Printf.sprintf "/*   0x%Lx -> %s (%s) */\n" v cb.cb_name action))
      callbacks;
    Buffer.add_char buf '\n');
  List.iter
    (fun h ->
      Buffer.add_string buf (handler_to_string program h);
      Buffer.add_char buf '\n')
    (Program.handlers program);
  Buffer.contents buf
