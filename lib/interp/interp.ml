open Devir

type guest = {
  read_byte : int64 -> int;
  write_byte : int64 -> int -> unit;
}

type hooks = {
  on_trace : Event.trace_event -> unit;
  on_block : Program.bref -> Block.kind -> unit;
  on_observe : Event.observe_entry -> unit;
  on_oob : Event.oob_event -> unit;
  on_irq : bool -> unit;
  on_overflow : Eval.overflow -> unit;
  on_response : Event.response_event -> unit;
}

let silent_hooks =
  {
    on_trace = ignore;
    on_block = (fun _ _ -> ());
    on_observe = ignore;
    on_oob = ignore;
    on_irq = ignore;
    on_overflow = ignore;
    on_response = ignore;
  }

(* A seeded corruption of the host→guest channel.  Corruptors run inside
   the interpreter, after expression evaluation but before the value
   crosses to the guest, so both checker engines (which replay the same
   device trace) observe identical effects and the device's own shadowed
   state never diverges. *)
type response_fault = {
  rf_read : (int64 -> int64) option;  (* mangle [Respond] values *)
  rf_dma_len : (int -> int) option;  (* mangle [Copy_to_guest] lengths *)
  rf_store : (int64 -> int64) option;  (* mangle [Write_guest] values *)
  rf_irq_burst : int;  (* extra raise/lower toggles per IRQ raise *)
}

let no_response_fault =
  { rf_read = None; rf_dma_len = None; rf_store = None; rf_irq_burst = 0 }

type config = { step_limit : int; depth_limit : int }

let default_config = { step_limit = 100_000; depth_limit = 8 }

exception Trap of Event.trap

(* The program as [create] lowers it: blocks in address order with
   successor indices, statements and terminator expressions as closures
   over resolved offsets and slots, trace packets preallocated.  Nothing
   in [code] changes after [create]; the per-interpreter mutable state
   (hooks, observation and sync points, the current run) lives in [t]. *)
type callback =
  | Cb_raise
  | Cb_lower
  | Cb_run of string * int  (* callee, entry block index or -1 if empty *)
  | Cb_noop

type t = {
  config : config;
  mutable hooks : hooks;
  program : Program.t;
  arena : Arena.t;
  asize : int;
  guest : guest;
  code : code;
  lctx : Lower.ctx;
  env : Lower.env;
  observed : bool array;  (* per block: an observation point *)
  mutable obs_state : (string * int * (Arena.t -> int -> int64)) list;
  sync : (string * int) list option array;
      (* per block: a sync point's locals with their slots ([-1]: a name
         no code sets, never defined) *)
  mutable on_sync : Program.bref -> (string * int64) list -> unit;
  mutable host_value : string -> int64;
  mutable icall_guard : (Program.bref -> int64 -> bool) option;
  mutable response_fault : response_fault option;
  (* The run in progress. *)
  mutable steps : int;
  mutable response : int64;
  mutable responded : bool;
}

and code = {
  blocks : block array;
  index : (Program.bref, int) Hashtbl.t;
  entries : (string, int) Hashtbl.t;  (* handler -> entry index, -1 if empty *)
  cb_vals : int64 array;  (* callback table in program order *)
  cb_acts : callback array;
}

and block = {
  id : int;
  bref : Program.bref;
  kind : Block.kind;
  pge : Event.trace_event;  (* [Pge] of this block's address *)
  stmts : (t -> unit) array;
  term : term;
  src_stmts : Stmt.t list;  (* what observation entries carry *)
  src_term : Term.t;
}

and term =
  | L_goto of int * Event.obs_outcome
  | L_halt
  | L_branch of (Lower.env -> int64) * int * int
  | L_switch of switch
  | L_icall of (Lower.env -> int64) * int

and switch = {
  scrutinee : Lower.env -> int64;
  case_vals : int64 array;  (* sorted, deduped *)
  case_dests : int array;
  case_labels : string array;
  case_tips : Event.trace_event array;
  default : int;
  default_label : string;
  default_tip : Event.trace_event;
}

let tnt_taken = Event.Tnt true
let tnt_not_taken = Event.Tnt false

(* --- Statements ------------------------------------------------------ *)

(* The arena offset of byte [i] of [buf], with C overflow semantics: an
   index outside the buffer fires [on_oob] and reaches the neighbouring
   fields; one outside the whole structure raises [Out_of_arena]. *)
let byte_at t at (buf : Lower.buf) i ~write =
  if i < 0 || i >= buf.size then
    t.hooks.on_oob
      { Event.oob_block = at; oob_buf = buf.name; oob_index = i; oob_write = write };
  let abs = buf.base + i in
  if abs < 0 || abs >= t.asize then
    raise (Arena.Out_of_arena { field = buf.name; index = i });
  abs

(* A byte run [off, off + len) inside the buffer can neither fire [on_oob]
   nor leave the arena, so its loop needs no per-byte checks. *)
let inside (buf : Lower.buf) off len = off >= 0 && len <= buf.size - off

(* Little-endian load, highest byte read first. *)
let rec read_le read addr i acc =
  if i < 0 then acc
  else
    read_le read addr (i - 1)
      (Int64.logor (Int64.shift_left acc 8)
         (Int64.of_int (read (Int64.add addr (Int64.of_int i)))))

let set_local (env : Lower.env) s v =
  env.locals.(s) <- v;
  env.ldef.(s) <- true

(* Evaluation order within a statement is observable (the order of
   overflow and oob events, and which trap fires first) and fixed by the
   pinned digests in test_interp: [Set_buf] evaluates its value before
   its index, every other statement evaluates left to right. *)
let lower_stmt lc ~at (stmt : Stmt.t) : (t -> unit) option =
  let expr = Lower.expr lc ~at in
  match stmt with
  | Stmt.Set_field (f, e) ->
    let off, w = Lower.scalar lc ~at f in
    let write = Lower.writer w and fe = expr e in
    Some (fun t -> write t.arena off (fe t.env))
  | Stmt.Set_buf (b, idx, v) ->
    let buf = Lower.buffer lc ~at b in
    let fidx = expr idx and fv = expr v in
    Some
      (fun t ->
        let byte = Int64.to_int (fv t.env) land 0xFF in
        let i = Int64.to_int (fidx t.env) in
        Arena.set_byte_at t.arena (byte_at t at buf i ~write:true) byte)
  | Stmt.Set_local (n, e) ->
    let s = Lower.local_slot lc n and fe = expr e in
    Some (fun t -> set_local t.env s (fe t.env))
  | Stmt.Buf_fill (b, off, len, v) ->
    let buf = Lower.buffer lc ~at b in
    let foff = expr off and flen = expr len and fv = expr v in
    Some
      (fun t ->
        let off = Int64.to_int (foff t.env) in
        let len = Int64.to_int (flen t.env) in
        let byte = Int64.to_int (fv t.env) land 0xFF in
        if inside buf off len then
          for i = buf.base + off to buf.base + off + len - 1 do
            Arena.set_byte_at t.arena i byte
          done
        else
          for i = off to off + len - 1 do
            Arena.set_byte_at t.arena (byte_at t at buf i ~write:true) byte
          done)
  | Stmt.Copy_from_guest { buf; buf_off; addr; len } ->
    let buf = Lower.buffer lc ~at buf in
    let foff = expr buf_off and flen = expr len and faddr = expr addr in
    Some
      (fun t ->
        let off = Int64.to_int (foff t.env) in
        let len = Int64.to_int (flen t.env) in
        let addr = faddr t.env in
        let read = t.guest.read_byte in
        if inside buf off len then begin
          let base = buf.base + off in
          for i = 0 to len - 1 do
            let byte = read (Int64.add addr (Int64.of_int i)) in
            Arena.set_byte_at t.arena (base + i) byte
          done
        end
        else
          for i = 0 to len - 1 do
            let byte = read (Int64.add addr (Int64.of_int i)) in
            Arena.set_byte_at t.arena (byte_at t at buf (off + i) ~write:true) byte
          done)
  | Stmt.Copy_to_guest { buf; buf_off; addr; len } ->
    let buf = Lower.buffer lc ~at buf in
    let foff = expr buf_off and flen = expr len and faddr = expr addr in
    Some
      (fun t ->
        let off = Int64.to_int (foff t.env) in
        let len = Int64.to_int (flen t.env) in
        let addr = faddr t.env in
        let len =
          match t.response_fault with
          | Some { rf_dma_len = Some f; _ } -> f len
          | _ -> len
        in
        (* Announced before the copy so the validator sees the length even
           when a mangled length traps mid-transfer. *)
        t.hooks.on_response (Event.R_dma_out { addr; len });
        let write = t.guest.write_byte in
        if inside buf off len then begin
          let base = buf.base + off in
          for i = 0 to len - 1 do
            write (Int64.add addr (Int64.of_int i)) (Arena.get_byte_at t.arena (base + i))
          done
        end
        else
          for i = 0 to len - 1 do
            let byte = Arena.get_byte_at t.arena (byte_at t at buf (off + i) ~write:false) in
            write (Int64.add addr (Int64.of_int i)) byte
          done)
  | Stmt.Read_guest { local; addr; width } ->
    let s = Lower.local_slot lc local and faddr = expr addr in
    let n = Width.bytes width in
    Some
      (fun t ->
        let addr = faddr t.env in
        set_local t.env s (read_le t.guest.read_byte addr (n - 1) 0L))
  | Stmt.Write_guest { addr; value; width } ->
    let faddr = expr addr and fv = expr value in
    let n = Width.bytes width in
    Some
      (fun t ->
        let addr = faddr t.env in
        let v = fv t.env in
        let v =
          match t.response_fault with
          | Some { rf_store = Some f; _ } -> f v
          | _ -> v
        in
        t.hooks.on_response (Event.R_store { addr; value = v; width });
        for i = 0 to n - 1 do
          t.guest.write_byte
            (Int64.add addr (Int64.of_int i))
            (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
        done)
  | Stmt.Respond e ->
    let fe = expr e in
    Some
      (fun t ->
        let v = fe t.env in
        let v =
          match t.response_fault with
          | Some { rf_read = Some f; _ } -> f v
          | _ -> v
        in
        t.hooks.on_response (Event.R_read_return v);
        t.response <- v;
        t.responded <- true)
  | Stmt.Note _ -> None
  | Stmt.Host_value { local; key } ->
    let s = Lower.local_slot lc local in
    Some (fun t -> set_local t.env s (t.host_value key))

(* --- Lowering -------------------------------------------------------- *)

let lower_program lc program =
  let index = Hashtbl.create 64 in
  let brefs = ref [] in
  Program.iter_blocks program (fun bref _ ->
      Hashtbl.replace index bref (Hashtbl.length index);
      brefs := bref :: !brefs);
  let brefs = Array.of_list (List.rev !brefs) in
  let resolve ~(at : Program.bref) label =
    match Hashtbl.find_opt index { Program.handler = at.handler; label } with
    | Some i -> i
    | None -> Lower.unresolved ~at "no block %s" label
  in
  let tip ~at label =
    Event.Tip (Program.address_of program brefs.(resolve ~at label))
  in
  let entries = Hashtbl.create 8 in
  List.iter
    (fun (h : Program.handler) ->
      Hashtbl.replace entries h.hname
        (match h.blocks with
        | b :: _ -> Hashtbl.find index { Program.handler = h.hname; label = b.label }
        | [] -> -1))
    (Program.handlers program);
  let callbacks = Program.callbacks program in
  let cb_acts =
    Array.of_list
      (List.map
         (fun (_, (cb : Program.callback)) ->
           match cb.action with
           | Program.Raise_irq_line -> Cb_raise
           | Program.Lower_irq_line -> Cb_lower
           | Program.Noop -> Cb_noop
           | Program.Run_handler callee -> (
             match Hashtbl.find_opt entries callee with
             | Some i -> Cb_run (callee, i)
             | None ->
               invalid_arg
                 (Printf.sprintf "callback %s runs unknown handler %s" cb.cb_name
                    callee)))
         callbacks)
  in
  let lower_term ~at (term : Term.t) =
    match term with
    | Term.Goto l -> L_goto (resolve ~at l, Event.O_goto l)
    | Term.Halt -> L_halt
    | Term.Branch (cond, if_taken, if_not) ->
      L_branch (Lower.expr lc ~at cond, resolve ~at if_taken, resolve ~at if_not)
    | Term.Switch (scrutinee, cases, default) ->
      let case_vals, case_labels = Lower.sorted_cases cases in
      L_switch
        {
          scrutinee = Lower.expr lc ~at scrutinee;
          case_vals;
          case_dests = Array.map (resolve ~at) case_labels;
          case_labels;
          case_tips = Array.map (tip ~at) case_labels;
          default = resolve ~at default;
          default_label = default;
          default_tip = tip ~at default;
        }
    | Term.Icall (fnptr, next) -> L_icall (Lower.expr lc ~at fnptr, resolve ~at next)
  in
  let blocks =
    Array.mapi
      (fun id (bref : Program.bref) ->
        let b = Program.find_block program bref in
        {
          id;
          bref;
          kind = b.kind;
          pge = Event.Pge (Program.address_of program bref);
          stmts = Array.of_list (List.filter_map (lower_stmt lc ~at:bref) b.stmts);
          term = lower_term ~at:bref b.term;
          src_stmts = b.stmts;
          src_term = b.term;
        })
      brefs
  in
  { blocks; index; entries; cb_vals = Array.of_list (List.map fst callbacks); cb_acts }

let create ?(config = default_config) ?(hooks = silent_hooks) ~program ~arena
    ~guest () =
  let lctx = Lower.create (Arena.layout arena) in
  let code =
    try lower_program lctx program
    with Invalid_argument msg -> invalid_arg ("Interp.create: " ^ msg)
  in
  let n = Array.length code.blocks in
  let t =
    {
      config;
      hooks;
      program;
      arena;
      asize = Arena.size arena;
      guest;
      code;
      lctx;
      env = Lower.make_env lctx ~work:arena;
      observed = Array.make n false;
      obs_state = [];
      sync = Array.make n None;
      on_sync = (fun _ _ -> ());
      host_value = (fun _ -> 0L);
      icall_guard = None;
      response_fault = None;
      steps = 0;
      response = 0L;
      responded = false;
    }
  in
  (* Hooks are read when an event fires, so [set_hooks] takes effect at
     once. *)
  t.env.record_overflow <- (fun o -> t.hooks.on_overflow o);
  t.env.oob_read <-
    (fun at buf i ->
      t.hooks.on_oob
        { Event.oob_block = at; oob_buf = buf; oob_index = i; oob_write = false });
  t

let set_hooks t hooks = t.hooks <- hooks
let hooks t = t.hooks
let program t = t.program
let arena t = t.arena

let state_reader layout name =
  match Layout.find layout name with
  | { Layout.kind = Layout.Reg w; _ } ->
    (name, Layout.offset layout name, Lower.reader w)
  | { Layout.kind = Layout.Fn_ptr; _ } ->
    (name, Layout.offset layout name, Lower.reader Width.W64)
  | { Layout.kind = Layout.Buf _; _ } | (exception Not_found) ->
    invalid_arg
      (Printf.sprintf "Interp.set_observation: %s is not a scalar field" name)

let set_observation t ~points ~state_params =
  let readers = List.map (state_reader (Arena.layout t.arena)) state_params in
  Array.fill t.observed 0 (Array.length t.observed) false;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.code.index p with
      | Some i -> t.observed.(i) <- true
      | None -> ())
    points;
  t.obs_state <- readers

let clear_observation t =
  Array.fill t.observed 0 (Array.length t.observed) false;
  t.obs_state <- []

let set_host_values t f = t.host_value <- f

let set_icall_guard t g = t.icall_guard <- g
let clear_icall_guard t = t.icall_guard <- None

let set_response_fault t rf = t.response_fault <- rf
let response_fault t = t.response_fault

let set_sync_points t points ~on_sync =
  Array.fill t.sync 0 (Array.length t.sync) None;
  List.iter
    (fun (bref, locals) ->
      match Hashtbl.find_opt t.code.index bref with
      | Some i ->
        t.sync.(i) <-
          Some
            (List.map
               (fun l ->
                 (l, match Lower.find_local t.lctx l with Some s -> s | None -> -1))
               locals)
      | None -> ())
    points;
  t.on_sync <- on_sync

(* --- Execution ------------------------------------------------------- *)

let rec read_state arena = function
  | [] -> []
  | (name, off, read) :: rest -> (name, read arena off) :: read_state arena rest

let observe t (b : block) outcome cmd =
  t.hooks.on_observe
    {
      Event.block = b.bref;
      kind = b.kind;
      state = read_state t.arena t.obs_state;
      outcome;
      cmd;
      stmts = b.src_stmts;
      term = b.src_term;
    }

let rec synced (env : Lower.env) = function
  | [] -> []
  | (name, s) :: rest ->
    if s >= 0 && env.ldef.(s) then (name, env.locals.(s)) :: synced env rest
    else synced env rest

let trap_at (b : block) = function
  | Arena.Out_of_arena { field; index } ->
    Event.Out_of_arena { block = b.bref; field; index }
  | Eval.Div_by_zero -> Event.Div_by_zero b.bref
  | Eval.Undefined_param param -> Event.Undefined_param { block = b.bref; param }
  | Eval.Undefined_local local -> Event.Undefined_local { block = b.bref; local }
  | e -> raise e

let exec_stmts t (b : block) =
  let stmts = b.stmts in
  try
    for i = 0 to Array.length stmts - 1 do
      stmts.(i) t
    done
  with
  | ( Arena.Out_of_arena _ | Eval.Div_by_zero | Eval.Undefined_param _
    | Eval.Undefined_local _ ) as e ->
    raise (Trap (trap_at b e))

let eval_at t (b : block) f =
  try f t.env with
  | ( Arena.Out_of_arena _ | Eval.Div_by_zero | Eval.Undefined_param _
    | Eval.Undefined_local _ ) as e ->
    raise (Trap (trap_at b e))

(* The first binding of a callback value wins, as in
   [Program.find_callback]; [-1] is a wild jump. *)
let rec find_callback vals v i =
  if i = Array.length vals then -1
  else if Int64.equal vals.(i) v then i
  else find_callback vals v (i + 1)

(* Execute a handler to completion.  [depth] > 0 means we arrived through a
   callback chain; only the outermost invocation brackets the trace with
   PGE/PGD.  [entry] is [-1] for an empty handler and [-2] for a name the
   program does not define. *)
let rec run_handler t depth name entry =
  if depth > t.config.depth_limit then raise (Trap Event.Depth_limit);
  if entry = -2 then invalid_arg (Printf.sprintf "Interp.run: no handler %s" name);
  if entry = -1 then invalid_arg (Printf.sprintf "Interp.run: handler %s is empty" name);
  let b = t.code.blocks.(entry) in
  if depth = 0 then t.hooks.on_trace b.pge;
  step t depth b

and step t depth (b : block) =
  t.steps <- t.steps + 1;
  if t.steps > t.config.step_limit then raise (Trap Event.Step_limit);
  t.hooks.on_block b.bref b.kind;
  exec_stmts t b;
  (match t.sync.(b.id) with
  | Some locals -> t.on_sync b.bref (synced t.env locals)
  | None -> ());
  let observed = t.observed.(b.id) in
  match b.term with
  | L_goto (next, outcome) ->
    if observed then observe t b outcome None;
    step t depth t.code.blocks.(next)
  | L_branch (cond, if_taken, if_not) ->
    let taken = Eval.truthy (eval_at t b cond) in
    t.hooks.on_trace (if taken then tnt_taken else tnt_not_taken);
    if observed then
      observe t b (if taken then Event.O_taken else Event.O_not_taken) None;
    step t depth t.code.blocks.(if taken then if_taken else if_not)
  | L_switch sw ->
    let v = eval_at t b sw.scrutinee in
    let i = Lower.case_index sw.case_vals v in
    t.hooks.on_trace (if i < 0 then sw.default_tip else sw.case_tips.(i));
    if observed then
      observe t b
        (Event.O_case (v, if i < 0 then sw.default_label else sw.case_labels.(i)))
        (Some v);
    step t depth t.code.blocks.(if i < 0 then sw.default else sw.case_dests.(i))
  | L_icall (fnptr, next) ->
    let v = eval_at t b fnptr in
    t.hooks.on_trace (Event.Tip v);
    if observed then observe t b (Event.O_icall v) None;
    (match t.icall_guard with
    | Some guard when not (guard b.bref v) ->
      raise (Trap (Event.Icall_blocked { block = b.bref; target = v }))
    | _ -> ());
    (match find_callback t.code.cb_vals v 0 with
    | -1 -> raise (Trap (Event.Wild_jump { block = b.bref; target = v }))
    | i -> (
      match t.code.cb_acts.(i) with
      | Cb_raise ->
        t.hooks.on_irq true;
        t.hooks.on_response (Event.R_irq true);
        (* An injected storm toggles the line so every extra raise is a
           real low→high edge the IRQ controller counts. *)
        (match t.response_fault with
        | Some { rf_irq_burst = n; _ } when n > 0 ->
          for _ = 1 to n do
            t.hooks.on_irq false;
            t.hooks.on_response (Event.R_irq false);
            t.hooks.on_irq true;
            t.hooks.on_response (Event.R_irq true)
          done
        | _ -> ())
      | Cb_lower ->
        t.hooks.on_irq false;
        t.hooks.on_response (Event.R_irq false)
      | Cb_run (callee, entry) -> run_handler t (depth + 1) callee entry
      | Cb_noop -> ()));
    step t depth t.code.blocks.(next)
  | L_halt ->
    if observed then observe t b Event.O_halt None;
    if depth = 0 then t.hooks.on_trace Event.Pgd

let run t ~handler ~params =
  Lower.reset t.env;
  Lower.bind_params t.lctx t.env params;
  t.steps <- 0;
  t.responded <- false;
  let entry =
    match Hashtbl.find t.code.entries handler with
    | i -> i
    | exception Not_found -> -2
  in
  match run_handler t 0 handler entry with
  | () -> Event.Done { response = (if t.responded then Some t.response else None) }
  | exception Trap trap -> Event.Trapped trap

let null_guest = { read_byte = (fun _ -> 0); write_byte = (fun _ _ -> ()) }

(* The range test is on the [int64]: [Int64.to_int] drops bit 63, so an
   address with it set would alias the byte below it. *)
let bytes_guest mem =
  let inside addr = addr >= 0L && addr < Int64.of_int (Bytes.length mem) in
  {
    read_byte =
      (fun addr -> if inside addr then Char.code (Bytes.get mem (Int64.to_int addr)) else 0);
    write_byte =
      (fun addr v ->
        if inside addr then Bytes.set mem (Int64.to_int addr) (Char.chr (v land 0xFF)));
  }

(* Re-export the library's sibling modules: [interp.ml] is the library's
   root module, which would otherwise hide them from the outside. *)
module Event = Event
module Eval = Eval
module Lower = Lower
