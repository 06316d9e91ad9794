type kind = Normal | Entry | Exit | Cmd_decision | Cmd_end

type t = {
  label : string;
  kind : kind;
  stmts : Stmt.t list;
  term : Term.t;
}

let kind_to_string = function
  | Normal -> "normal"
  | Entry -> "entry"
  | Exit -> "exit"
  | Cmd_decision -> "cmd-decision"
  | Cmd_end -> "cmd-end"

let v ?(kind = Normal) label stmts term = { label; kind; stmts; term }

let pp ppf b =
  Format.fprintf ppf "@[<v 2>%s (%s):@,%a%a@]" b.label (kind_to_string b.kind)
    (fun ppf stmts ->
      List.iter (fun s -> Format.fprintf ppf "%a@," Stmt.pp s) stmts)
    b.stmts Term.pp b.term
