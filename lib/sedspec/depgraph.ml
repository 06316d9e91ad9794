open Devir

(* Per-handler dominators and reaching definitions over the device IR.

   Handlers are small (tens of blocks), so both analyses are the simple
   iterative set-based formulation on dense bool matrices: the whole
   build is microseconds per handler and runs once per spec construction
   or locator run, never on the walk hot path.

   - Dominators: classic forward intersection fixpoint.
   - Reaching definitions at per-statement granularity.  Locals and
     scalar fields define strongly (a new definition kills previous
     ones); buffer writes define weakly (byte-granular stores never kill
     a whole-buffer definition), which is also the sound reading of the
     IR's C-struct escape hatch where an out-of-range [Set_buf] spills
     into adjacent fields. *)

type var = Vlocal of string | Vfield of string

type def_site = { d_label : string; d_index : int; d_stmt : Stmt.t }

type hgraph = {
  index : (string, int) Hashtbl.t;
  blocks : Block.t array;
  dom : bool array array;  (** [dom.(b).(a)]: [a] dominates [b]. *)
  defs : def_site array;
  def_var : var array;
  din : bool array array;  (** Reaching definitions at block entry. *)
}

type t = (string, hgraph) Hashtbl.t

let stmt_defs (stmt : Stmt.t) : (var * bool) list =
  match stmt with
  | Stmt.Set_local (n, _) -> [ (Vlocal n, true) ]
  | Stmt.Read_guest { local; _ } | Stmt.Host_value { local; _ } ->
    [ (Vlocal local, true) ]
  | Stmt.Set_field (f, _) -> [ (Vfield f, true) ]
  | Stmt.Set_buf (b, _, _)
  | Stmt.Buf_fill (b, _, _, _)
  | Stmt.Copy_from_guest { buf = b; _ } ->
    [ (Vfield b, false) ]
  | Stmt.Copy_to_guest _ | Stmt.Write_guest _ | Stmt.Respond _ | Stmt.Note _ ->
    []

let intersect_into dst src =
  Array.iteri (fun i v -> if not v then dst.(i) <- false) src

let build_handler (h : Program.handler) =
  let blocks = Array.of_list h.blocks in
  let n = Array.length blocks in
  let labels = Array.map (fun (b : Block.t) -> b.Block.label) blocks in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let succ =
    Array.map
      (fun (b : Block.t) ->
        List.filter_map
          (fun l -> Hashtbl.find_opt index l)
          (Term.successors b.Block.term))
      blocks
  in
  let pred = Array.make n [] in
  Array.iteri (fun a ss -> List.iter (fun s -> pred.(s) <- a :: pred.(s)) ss) succ;
  Array.iteri (fun s ps -> pred.(s) <- List.rev ps) pred;
  (* Dominators. *)
  let dom = Array.init n (fun b -> Array.make n (b <> 0 || n = 1)) in
  if n > 0 then begin
    Array.fill dom.(0) 0 n false;
    dom.(0).(0) <- true;
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 1 to n - 1 do
        if pred.(b) <> [] then begin
          let acc = Array.make n true in
          List.iter (fun p -> intersect_into acc dom.(p)) pred.(b);
          acc.(b) <- true;
          if acc <> dom.(b) then begin
            dom.(b) <- acc;
            changed := true
          end
        end
      done
    done
  end;
  (* Reaching definitions. *)
  let defs = ref [] in
  Array.iteri
    (fun bi (b : Block.t) ->
      List.iteri
        (fun si stmt ->
          List.iter
            (fun (v, _) ->
              defs :=
                ({ d_label = labels.(bi); d_index = si; d_stmt = stmt }, v)
                :: !defs)
            (stmt_defs stmt))
        b.Block.stmts)
    blocks;
  let all = Array.of_list (List.rev !defs) in
  let defs = Array.map fst all in
  let def_var = Array.map snd all in
  let nd = Array.length defs in
  let def_ids_at = Hashtbl.create (2 * nd) in
  Array.iteri
    (fun i (d : def_site) -> Hashtbl.replace def_ids_at (d.d_label, d.d_index) i)
    defs;
  (* Transfer one statement over a live-def set. *)
  let apply_stmt set bi si stmt =
    List.iter
      (fun (v, strong) ->
        if strong then
          for d = 0 to nd - 1 do
            if set.(d) && def_var.(d) = v then set.(d) <- false
          done;
        match Hashtbl.find_opt def_ids_at (labels.(bi), si) with
        | Some id -> set.(id) <- true
        | None -> ())
      (stmt_defs stmt)
  in
  let transfer set bi =
    List.iteri (fun si stmt -> apply_stmt set bi si stmt) blocks.(bi).Block.stmts
  in
  let din = Array.init n (fun _ -> Array.make nd false) in
  let dout = Array.init n (fun _ -> Array.make nd false) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      let inset = Array.make nd false in
      List.iter
        (fun p ->
          Array.iteri (fun d v -> if v then inset.(d) <- true) dout.(p))
        pred.(b);
      if inset <> din.(b) then din.(b) <- inset;
      let out = Array.copy inset in
      transfer out b;
      if out <> dout.(b) then begin
        dout.(b) <- out;
        changed := true
      end
    done
  done;
  { index; blocks; dom; defs; def_var; din }

let build program =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (h : Program.handler) -> Hashtbl.replace t h.hname (build_handler h))
    (Program.handlers program);
  t

let with_ids t ~handler a b f =
  match Hashtbl.find_opt t handler with
  | None -> None
  | Some g -> (
    match (Hashtbl.find_opt g.index a, Hashtbl.find_opt g.index b) with
    | Some ia, Some ib -> Some (f g ia ib)
    | _ -> None)

let dominates t ~handler a b =
  match with_ids t ~handler a b (fun g ia ib -> g.dom.(ib).(ia)) with
  | Some v -> v
  | None -> false

let reaching_defs t ~handler ~label ?before var =
  match Hashtbl.find_opt t handler with
  | None -> []
  | Some g -> (
    match Hashtbl.find_opt g.index label with
    | None -> []
    | Some bi ->
      let nd = Array.length g.defs in
      let set = Array.copy g.din.(bi) in
      let upto =
        match before with
        | Some k -> k
        | None -> List.length g.blocks.(bi).Block.stmts
      in
      (* Re-run the block transfer up to the query point; [def_ids_at]
         was local to the build, so rediscover ids by (label, index). *)
      List.iteri
        (fun si stmt ->
          if si < upto then
            List.iter
              (fun (v, strong) ->
                if strong then
                  for d = 0 to nd - 1 do
                    if set.(d) && g.def_var.(d) = v then set.(d) <- false
                  done;
                ignore v;
                for d = 0 to nd - 1 do
                  if
                    g.defs.(d).d_label = label
                    && g.defs.(d).d_index = si
                  then set.(d) <- true
                done)
              (stmt_defs stmt))
        g.blocks.(bi).Block.stmts;
      let out = ref [] in
      for d = nd - 1 downto 0 do
        if set.(d) && g.def_var.(d) = var then out := g.defs.(d) :: !out
      done;
      !out)
