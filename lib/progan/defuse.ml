open Devir

type def =
  | Def_expr of Expr.t
  | Def_guest  (* loaded from guest memory: opaque *)

type t = { defs : (string, def list) Hashtbl.t }

let add tbl key v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cur @ [ v ])

let analyze (h : Program.handler) =
  let t = { defs = Hashtbl.create 16 } in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun stmt ->
          match stmt with
          | Stmt.Set_local (n, e) -> add t.defs n (Def_expr e)
          | Stmt.Read_guest { local; _ } | Stmt.Host_value { local; _ } ->
            add t.defs local Def_guest
          | _ -> ())
        b.stmts)
    h.blocks;
  t

(* Transitive closure over locals, tracking visited locals to terminate on
   cycles such as [i = i + 1]. *)
let transitive t extract e =
  let seen_locals = Hashtbl.create 8 in
  let acc = ref [] in
  let push x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec go e =
    List.iter push (extract e);
    List.iter
      (fun local ->
        if not (Hashtbl.mem seen_locals local) then begin
          Hashtbl.add seen_locals local ();
          List.iter
            (function Def_expr d -> go d | Def_guest -> ())
            (Option.value ~default:[] (Hashtbl.find_opt t.defs local))
        end)
      (Expr.locals e)
  in
  go e;
  List.rev !acc

let influencing_fields t e = transitive t Expr.fields e
