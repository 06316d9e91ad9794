open Devir
module L = Interp.Lower

type fault =
  | Overflow of {
      at : Program.bref;
      field : string;
      ov : Interp.Eval.overflow;
    }
  | Buf_bounds of {
      at : Program.bref;
      buf : string;
      off : int;
      len : int;
      size : int;
    }

exception Fault of fault
exception Defer
exception Bail of string

type target =
  | T_node of int
  | T_pop
  | T_off of Program.bref
  | T_spin of Program.bref array

type dest = { chain : Program.bref array; target : target }

(* All mutable walk state.  The compiled spec itself ([t], below) is
   immutable after [lower] and physically shared by every VM protecting
   the same (device, version); each checker owns exactly one cursor. *)
type cursor = {
  env : L.env;
  llink : bool array;
  mutable overflowed : bool;
  mutable overflow : Interp.Eval.overflow;
  mutable guest_read : int64 -> int;
  mutable sync : bool;
  mutable en_param : bool;
  mutable sync_pop : Program.bref -> string -> int64 option;
  (* Per-walk driver bookkeeping (owned by the checker's walk loop). *)
  mutable steps : int;
  mutable walked : int;
  mutable cctx : int;
  mutable depth : int;
  mutable stack : dest array;
  mutable bound : int;
  mutable deadline : int;
  entry_memo : dest L.memo;
}

type switch = {
  scrutinee : L.switch;
  case_vals : int64 array;
  case_dests : dest array;
  case_labels : string array;
  case_seen : bool array;
  case_cmd : int array;
  default : dest;
  default_label : string;
  observed : (int64, string list) Hashtbl.t;
  cmd_of : (int64, int) Hashtbl.t option;
}

type icall_action = A_chain of dest | A_plain | A_empty

type icall = {
  fnptr : L.env -> int64;
  legit : int64 -> bool;
  actions : (int64, icall_action) Hashtbl.t;
  next : dest;
}

type cterm =
  | C_goto of dest
  | C_halt
  | C_branch of {
      cond : L.env -> bool;
      taken0 : bool;
      not_taken0 : bool;
      if_taken : dest;
      if_not : dest;
    }
  | C_switch of switch
  | C_icall of icall

type cnode = {
  id : int;
  index : int;
  bref : Program.bref;
  no_cmd : bool;
  is_cmd_end : bool;
  stmts : (cursor -> unit) array;
  term : cterm;
}

type t = {
  spec : Es_cfg.t;
  layout : Layout.t;
  nodes : cnode array;
  entries : (string, dest) Hashtbl.t;
  slots : L.ctx;
  cmd_bits : Bytes.t array;
  cmd_keys : Es_cfg.cmd_key array;
  cmd_ids : (Es_cfg.cmd_key, int) Hashtbl.t;
  fn_ptr_spans : (int * int) list;
}

let bit b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let case_observed sw v label =
  (* [Hashtbl.find] + [Not_found] instead of [find_opt]: no [Some] box on
     a default route. *)
  match Hashtbl.find sw.observed v with
  | labels -> List.mem label labels
  | exception Not_found -> false

(* Expressions lower through {!Interp.Lower}, the device interpreter's
   own expression lowering, into closures over the cursor's env.  Local
   and parameter slots are allocated across the whole spec: locals persist
   across chained handlers within one walk and are keyed purely by name,
   exactly like the reference's single hashtable. *)
type cctx = {
  spec : Es_cfg.t;
  program : Program.t;
  slots : L.ctx;
  tracked : (string, unit) Hashtbl.t;
  ids : (Program.bref, int) Hashtbl.t;
}

(* Linkage (taint toward device/request state), constant-folded: only
   [Local] leaves are dynamic, everything else is statically linked or
   statically not. *)
type lnk = Lconst of bool | Ldyn of (cursor -> bool)

let lnk_or a b =
  match (a, b) with
  | Lconst true, _ | _, Lconst true -> Lconst true
  | Lconst false, x | x, Lconst false -> x
  | Ldyn fa, Ldyn fb -> Ldyn (fun cur -> fa cur || fb cur)

let rec compile_linked c (e : Expr.t) : lnk =
  match e with
  | Expr.Const _ -> Lconst false
  | Expr.Field _ | Expr.Buf_len _ | Expr.Buf_byte _ -> Lconst true
  | Expr.Param _ -> Lconst true
  | Expr.Local n ->
    let s = L.local_slot c.slots n in
    Ldyn (fun cur -> cur.llink.(s))
  | Expr.Binop (_, _, a, b) | Expr.Cmp (_, a, b) ->
    lnk_or (compile_linked c a) (compile_linked c b)
  | Expr.Not a -> compile_linked c a

(* --- Statements ------------------------------------------------------ *)

(* Bounds guard over a buffer operation whose extent is linked: a no-op
   closure when linkage is statically false. *)
let compile_buf_check ~at ~buf ~bsize l : cursor -> int -> int -> unit =
  match l with
  | Lconst false -> fun _ _ _ -> ()
  | Lconst true ->
    fun cur off len ->
      if cur.en_param && (off < 0 || off + len > bsize) then
        raise (Fault (Buf_bounds { at; buf; off; len; size = bsize }))
  | Ldyn fl ->
    fun cur off len ->
      if cur.en_param && fl cur && (off < 0 || off + len > bsize) then
        raise (Fault (Buf_bounds { at; buf; off; len; size = bsize }))

(* A field store faults, before it writes, on an overflow while its value
   was computed.  Only a store reads the overflow flag, so only a store
   clears it, before it evaluates its value. *)
let check_store cur at field =
  if cur.overflowed && cur.en_param then
    raise (Fault (Overflow { at; field; ov = cur.overflow }))

let compile_stmt c ~(at : Program.bref) (stmt : Stmt.t) : cursor -> unit =
  let int = L.int_expr c.slots ~at and int64 = L.int64_expr c.slots ~at in
  let asize = L.arena_size c.slots in
  match stmt with
  | Stmt.Set_field (f, e) -> (
    match L.scalar c.slots ~at f with
    | off, Width.W64 ->
      let fe = int64 e in
      fun cur ->
        cur.overflowed <- false;
        let v = fe cur.env in
        check_store cur at f;
        Arena.write_u64 cur.env.work off v
    | off, w ->
      let fe = int e and write = L.int_writer w in
      fun cur ->
        cur.overflowed <- false;
        let v = fe cur.env in
        check_store cur at f;
        write cur.env.work off v)
  | Stmt.Set_local (n, e) -> (
    let fe = int64 e in
    let s = L.local_slot c.slots n in
    match compile_linked c e with
    | Lconst l ->
      fun cur ->
        L.define cur.env s (fe cur.env);
        cur.llink.(s) <- l
    | Ldyn fl ->
      (* The value first: an undefined local it reads raises before its
         stale link bit could be read. *)
      fun cur ->
        let v = fe cur.env in
        let l = fl cur in
        L.define cur.env s v;
        cur.llink.(s) <- l)
  | Stmt.Set_buf (b, idx, v) ->
    let { L.base; size = bsize; _ } = L.buffer c.slots ~at b in
    let fidx = int idx in
    let check = compile_buf_check ~at ~buf:b ~bsize (compile_linked c idx) in
    let fv = int v in
    if Hashtbl.mem c.tracked b then
      fun cur ->
        let iv = fidx cur.env in
        check cur iv 1;
        let vv = fv cur.env land 0xFF in
        let abs = base + iv in
        if abs < 0 || abs >= asize then
          raise (Arena.Out_of_arena { field = b; index = iv });
        Arena.set_byte_at cur.env.work abs vv
    else
      fun cur ->
        let iv = fidx cur.env in
        check cur iv 1
  | Stmt.Buf_fill (b, off, len, v) ->
    let { L.base; size = bsize; _ } = L.buffer c.slots ~at b in
    let foff = int off and flen = int len in
    let check =
      compile_buf_check ~at ~buf:b ~bsize
        (lnk_or (compile_linked c off) (compile_linked c len))
    in
    let fv = int v in
    if Hashtbl.mem c.tracked b then
      fun cur ->
        let offv = foff cur.env in
        let lenv = flen cur.env in
        check cur offv lenv;
        let vv = fv cur.env land 0xFF in
        for i = offv to offv + lenv - 1 do
          let abs = base + i in
          if abs < 0 || abs >= asize then
            raise (Arena.Out_of_arena { field = b; index = i });
          Arena.set_byte_at cur.env.work abs vv
        done
    else
      fun cur ->
        let offv = foff cur.env in
        let lenv = flen cur.env in
        check cur offv lenv
  | Stmt.Copy_from_guest { buf; buf_off; addr; len } ->
    let { L.base; size = bsize; _ } = L.buffer c.slots ~at buf in
    let foff = int buf_off and flen = int len in
    let check =
      compile_buf_check ~at ~buf ~bsize
        (lnk_or (compile_linked c buf_off) (compile_linked c len))
    in
    let faddr = int64 addr in
    if Hashtbl.mem c.tracked buf then
      fun cur ->
        let offv = foff cur.env in
        let lenv = flen cur.env in
        check cur offv lenv;
        let addrv = faddr cur.env in
        for i = 0 to lenv - 1 do
          let byte = cur.guest_read (Int64.add addrv (Int64.of_int i)) in
          let idx = offv + i in
          let abs = base + idx in
          if abs < 0 || abs >= asize then
            raise (Arena.Out_of_arena { field = buf; index = idx });
          Arena.set_byte_at cur.env.work abs byte
        done
    else
      fun cur ->
        let offv = foff cur.env in
        let lenv = flen cur.env in
        check cur offv lenv
  | Stmt.Copy_to_guest { buf; buf_off; len; _ } ->
    (* Guest memory is never written during simulation; only the device
       buffer bounds are validated. *)
    let bsize = (L.buffer c.slots ~at buf).size in
    let foff = int buf_off and flen = int len in
    let check =
      compile_buf_check ~at ~buf ~bsize
        (lnk_or (compile_linked c buf_off) (compile_linked c len))
    in
    fun cur ->
      let offv = foff cur.env in
      let lenv = flen cur.env in
      check cur offv lenv
  | Stmt.Read_guest { local; addr; width } ->
    let faddr = int64 addr in
    let s = L.local_slot c.slots local in
    let n = Width.bytes width in
    fun cur ->
      let addrv = faddr cur.env in
      (* Little-endian, highest byte read first, into an unboxed
         accumulator. *)
      let v = ref 0L in
      for i = n - 1 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (cur.guest_read (Int64.add addrv (Int64.of_int i))))
      done;
      L.define cur.env s !v;
      cur.llink.(s) <- false
  | Stmt.Host_value { local; key = _ } ->
    let s = L.local_slot c.slots local in
    fun cur ->
      if not cur.sync then raise Defer
      else begin
        match cur.sync_pop at local with
        | Some v ->
          L.define cur.env s v;
          cur.llink.(s) <- false
        | None -> raise (Bail "missing sync value")
      end
  | Stmt.Respond _ | Stmt.Write_guest _ | Stmt.Note _ -> fun _ -> ()

(* --- Edge resolution ------------------------------------------------- *)

(* Chase the pass-through blocks (no DSOD, unconditional transfer — what
   control-flow reduction removed) from [start] to the next real node.
   Every traversed block is kept in the chain: the walk charges a step
   for each, so walk-limit anomalies land on the same bref as in the
   reference. *)
let resolve c (start : Program.bref) : dest =
  let rec go (bref : Program.bref) path =
    match Hashtbl.find_opt c.ids bref with
    | Some id -> { chain = Array.of_list (List.rev path); target = T_node id }
    | None ->
      if List.exists (Program.bref_equal bref) path then begin
        (* Goto cycle among non-node blocks: split into prefix + cycle. *)
        let rec split acc = function
          | [] -> assert false
          | x :: rest when Program.bref_equal x bref -> (List.rev acc, x :: rest)
          | x :: rest -> split (x :: acc) rest
        in
        let prefix, cycle = split [] (List.rev path) in
        { chain = Array.of_list prefix; target = T_spin (Array.of_list cycle) }
      end
      else
        let block = Program.find_block c.program bref in
        let path = bref :: path in
        match (Es_cfg.lift_dsod block.Block.stmts, block.Block.term) with
        | [], Term.Goto l ->
          go { Program.handler = bref.handler; label = l } path
        | [], Term.Halt ->
          { chain = Array.of_list (List.rev path); target = T_pop }
        | _ -> { chain = Array.of_list (List.rev path); target = T_off bref }
  in
  go start []

let resolve_label c (bref : Program.bref) label =
  resolve c { Program.handler = bref.handler; label }

(* --- Terminators ----------------------------------------------------- *)

let compile_term c (n : Es_cfg.node) cmd_keys : cterm =
  let at = n.bref in
  match n.Es_cfg.term with
  | Term.Goto l -> C_goto (resolve_label c n.bref l)
  | Term.Halt -> C_halt
  | Term.Branch (cond, if_taken, if_not) ->
    C_branch
      {
        cond = L.bool_expr c.slots ~at cond;
        taken0 = n.taken = 0;
        not_taken0 = n.not_taken = 0;
        if_taken = resolve_label c n.bref if_taken;
        if_not = resolve_label c n.bref if_not;
      }
  | Term.Switch (scrutinee, cases, default) ->
    let case_vals, case_labels = L.sorted_cases cases in
    let scrutinee = L.switch c.slots ~at scrutinee case_vals in
    let case_dests =
      Array.map (fun l -> resolve_label c n.bref l) case_labels
    in
    let observed = Hashtbl.create 16 in
    List.iter
      (fun (v, d) ->
        let cur =
          match Hashtbl.find_opt observed v with Some ls -> ls | None -> []
        in
        if not (List.mem d cur) then Hashtbl.replace observed v (d :: cur))
      n.cases;
    let cmd_of =
      if n.kind = Block.Cmd_decision then begin
        let tbl = Hashtbl.create 16 in
        Array.iteri
          (fun id (kbref, v) ->
            if Program.bref_equal kbref n.bref then Hashtbl.replace tbl v id)
          cmd_keys;
        Some tbl
      end
      else None
    in
    (* Verdicts for the static cases are decided here, once; a walk
       consults the tables only for a value routed to the default. *)
    let case_seen =
      Array.mapi
        (fun i v ->
          match Hashtbl.find_opt observed v with
          | Some labels -> List.mem case_labels.(i) labels
          | None -> false)
        case_vals
    in
    let case_cmd =
      Array.map
        (fun v ->
          match Option.bind cmd_of (fun tbl -> Hashtbl.find_opt tbl v) with
          | Some id -> id
          | None -> -1)
        case_vals
    in
    C_switch
      {
        scrutinee;
        case_vals;
        case_dests;
        case_labels;
        case_seen;
        case_cmd;
        default = resolve_label c n.bref default;
        default_label = default;
        observed;
        cmd_of;
      }
  | Term.Icall (fnptr, next) ->
    let f = L.int64_expr c.slots ~at fnptr in
    let targets = Array.of_list n.itargets in
    let legit =
      match Array.length targets with
      | 0 -> fun _ -> false
      | 1 ->
        let x = targets.(0) in
        fun v -> Int64.equal v x
      | len when len <= 8 ->
        fun v ->
          let rec scan i = i < len && (Int64.equal targets.(i) v || scan (i + 1)) in
          scan 0
      | _ ->
        let tbl = Hashtbl.create 32 in
        Array.iter (fun v -> Hashtbl.replace tbl v ()) targets;
        fun v -> Hashtbl.mem tbl v
    in
    let actions = Hashtbl.create 16 in
    List.iter
      (fun (v, (cb : Program.callback)) ->
        (* First binding wins, as in [List.assoc]. *)
        if not (Hashtbl.mem actions v) then
          let act =
            match cb.Program.action with
            | Program.Run_handler callee -> (
              match (Program.find_handler c.program callee).Program.blocks with
              | b :: _ ->
                A_chain (resolve c { Program.handler = callee; label = b.Block.label })
              | [] -> A_empty)
            | Program.Raise_irq_line | Program.Lower_irq_line | Program.Noop ->
              A_plain
          in
          Hashtbl.add actions v act)
      (Program.callbacks c.program);
    C_icall { fnptr = f; legit; actions; next = resolve_label c n.bref next }

(* --- Lowering -------------------------------------------------------- *)

let lower spec : t =
  let program = Es_cfg.program spec in
  let layout = Program.layout program in
  let selection = Es_cfg.selection spec in
  let tracked = Hashtbl.create 8 in
  List.iter
    (fun b -> Hashtbl.replace tracked b ())
    selection.Selection.tracked_buffers;
  let node_list = Es_cfg.nodes spec in
  let ids = Hashtbl.create (List.length node_list * 2) in
  List.iteri (fun i (n : Es_cfg.node) -> Hashtbl.add ids n.bref i) node_list;
  let c = { spec; program; slots = L.create layout; tracked; ids } in
  let cmd_keys = Array.of_list (Es_cfg.commands spec) in
  let cmd_ids = Hashtbl.create (Array.length cmd_keys * 2) in
  Array.iteri (fun i key -> Hashtbl.replace cmd_ids key i) cmd_keys;
  let nodes =
    Array.of_list
      (List.mapi
         (fun id (n : Es_cfg.node) ->
           {
             id;
             index = Program.index_of program n.bref;
             bref = n.bref;
             no_cmd = Es_cfg.no_cmd_allows spec n.bref;
             is_cmd_end = n.kind = Block.Cmd_end;
             stmts =
               Array.of_list
                 (List.map (compile_stmt c ~at:n.bref) n.dsod);
             term = compile_term c n cmd_keys;
           })
         node_list)
  in
  (* Per-command access sets as bitsets over dense node ids. *)
  let nbits = (Array.length nodes + 7) / 8 in
  let nbits = if nbits = 0 then 1 else nbits in
  let cmd_bits =
    Array.map
      (fun key ->
        let b = Bytes.make nbits '\000' in
        Array.iter
          (fun cn -> if Es_cfg.cmd_allows spec key cn.bref then set_bit b cn.id)
          nodes;
        b)
      cmd_keys
  in
  let entries = Hashtbl.create 16 in
  List.iter
    (fun (h : Program.handler) ->
      match h.Program.blocks with
      | b :: _ ->
        Hashtbl.replace entries h.Program.hname
          (resolve c { Program.handler = h.Program.hname; label = b.Block.label })
      | [] -> ())
    (Program.handlers program);
  let fn_ptr_spans =
    List.map
      (fun f ->
        (Layout.offset layout f, Layout.field_size (Layout.find layout f)))
      selection.Selection.fn_ptrs
  in
  {
    spec;
    layout;
    nodes;
    entries;
    slots = c.slots;
    cmd_bits;
    cmd_keys;
    cmd_ids;
    fn_ptr_spans;
  }

(* --- Cursors ---------------------------------------------------------- *)

let dummy_dest = { chain = [||]; target = T_pop }

let no_overflow =
  {
    Interp.Eval.ov_op = Expr.Add;
    ov_width = Width.W8;
    ov_lhs = 0L;
    ov_rhs = 0L;
    ov_result = 0L;
  }

let make_cursor ?work (t : t) =
  let work = match work with Some w -> w | None -> Arena.create t.layout in
  let cur =
    {
      env = L.make_env t.slots ~work;
      llink = Array.make (max (L.n_locals t.slots) 1) false;
      overflowed = false;
      overflow = no_overflow;
      guest_read = (fun _ -> 0);
      sync = false;
      en_param = true;
      sync_pop = (fun _ _ -> None);
      steps = 0;
      walked = 0;
      cctx = -1;
      depth = 0;
      stack = Array.make 8 dummy_dest;
      bound = max_int;
      deadline = max_int;
      entry_memo = L.memo 4 dummy_dest;
    }
  in
  cur.env.record_overflow <-
    (fun o ->
      if not cur.overflowed then begin
        cur.overflowed <- true;
        cur.overflow <- o
      end);
  cur

(* Reset the per-walk portions of a cursor: immediate stores only, so no
   allocation and no write barrier, whatever the number of slots.  The
   epoch bump forgets every local and parameter.  The link bits are not
   cleared: every store that defines a local writes its link bit, and a
   link bit is read only through an expression that reads its local,
   which raises first if the local is not defined in this walk. *)
let cursor_start cur ~sync ~en_param ~limit ~deadline =
  L.reset cur.env;
  cur.overflowed <- false;
  cur.sync <- sync;
  cur.en_param <- en_param;
  cur.steps <- 0;
  cur.walked <- 0;
  cur.depth <- 0;
  cur.bound <- min limit deadline;
  cur.deadline <- deadline

let push_dest cur d =
  let n = Array.length cur.stack in
  if cur.depth = n then begin
    let grown = Array.make (2 * n) dummy_dest in
    Array.blit cur.stack 0 grown 0 n;
    cur.stack <- grown
  end;
  cur.stack.(cur.depth) <- d;
  cur.depth <- cur.depth + 1

let bind_params (t : t) cur ~handler params =
  L.bind_params t.slots cur.env ~handler params

let entry (t : t) cur handler = L.memo_find cur.entry_memo t.entries handler
