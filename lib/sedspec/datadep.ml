open Devir

type classification = Substituted | Guest_replay | Sync_point

type report = {
  per_site : (Program.bref * classification) list;
  substituted : int;
  guest_replay : int;
  sync_points : int;
}

(* Severity join: a host dependence anywhere makes the site a sync point;
   otherwise a guest dependence anywhere makes it guest-replay. *)
let join a b =
  match (a, b) with
  | Sync_point, _ | _, Sync_point -> Sync_point
  | Guest_replay, _ | _, Guest_replay -> Guest_replay
  | Substituted, Substituted -> Substituted

(* DDG-backed classification: chase only the definitions that reach the
   decision point (flow-sensitive).  A host-value load that cannot reach
   the branch no longer forces a sync point. *)
let classify_site ?graph program (bref : Program.bref) expr =
  let graph = match graph with Some g -> g | None -> Depgraph.build program in
  let uses_host = ref false and uses_guest = ref false in
  let seen = Hashtbl.create 16 in
  let rec chase ~label ~before local =
    let key = (label, before, local) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      List.iter
        (fun (d : Depgraph.def_site) ->
          match d.Depgraph.d_stmt with
          | Stmt.Set_local (_, e) ->
            List.iter
              (chase ~label:d.d_label ~before:(Some d.d_index))
              (Expr.locals e)
          | Stmt.Read_guest _ -> uses_guest := true
          | Stmt.Host_value _ -> uses_host := true
          | _ -> ())
        (Depgraph.reaching_defs graph ~handler:bref.handler ~label ?before
           (Depgraph.Vlocal local))
    end
  in
  List.iter (chase ~label:bref.label ~before:None) (Expr.locals expr);
  if !uses_host then Sync_point
  else if !uses_guest then Guest_replay
  else Substituted

(* Join over *all* of a terminator's expressions.  The first cut of
   [analyze] classified [e :: _] only, so a site whose later expression
   was host-derived could be reported [Substituted] — hiding a sync
   point from every consumer of the report. *)
let classify_exprs ?graph program bref exprs =
  match exprs with
  | [] -> None
  | es ->
    Some
      (List.fold_left
         (fun acc e -> join acc (classify_site ?graph program bref e))
         Substituted es)

let analyze spec =
  let program = Es_cfg.program spec in
  let graph = Depgraph.build program in
  let per_site =
    List.filter_map
      (fun (n : Es_cfg.node) ->
        match classify_exprs ~graph program n.bref (Term.exprs n.term) with
        | None -> None
        | Some c -> Some (n.bref, c))
      (Es_cfg.nodes spec)
  in
  let count c = List.length (List.filter (fun (_, x) -> x = c) per_site) in
  {
    per_site;
    substituted = count Substituted;
    guest_replay = count Guest_replay;
    sync_points = count Sync_point;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "data dependencies: %d substituted, %d guest-replay, %d sync points"
    r.substituted r.guest_replay r.sync_points
