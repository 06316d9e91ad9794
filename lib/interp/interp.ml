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

(* A field left as in [silent_hooks] adds no call. *)
let seq1 silent f g = if f == silent then g else if g == silent then f else fun x -> f x; g x

let seq2 silent f g =
  if f == silent then g else if g == silent then f else fun x y -> f x y; g x y

let merge_hooks a b =
  let s = silent_hooks in
  {
    on_trace = seq1 s.on_trace a.on_trace b.on_trace;
    on_block = seq2 s.on_block a.on_block b.on_block;
    on_observe = seq1 s.on_observe a.on_observe b.on_observe;
    on_oob = seq1 s.on_oob a.on_oob b.on_oob;
    on_irq = seq1 s.on_irq a.on_irq b.on_irq;
    on_overflow = seq1 s.on_overflow a.on_overflow b.on_overflow;
    on_response = seq1 s.on_response a.on_response b.on_response;
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

(* Blocks one run may execute before it counts as a hang, and how deep
   callbacks may chain handlers. *)
let step_limit = 100_000
let depth_limit = 8

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

type sync_layer = {
  points : (Program.bref * string list) list;
  listener : Program.bref -> (string * int64) list -> unit;
}

type t = {
  mutable hook_layers : hooks ref list;
      (* In the order they were added, each in its own cell for its
         remover to find. *)
  mutable hooks : hooks;  (* [hook_layers] composed: what a run reads *)
  mutable tracing : bool;  (* some layer listens to [on_trace] *)
  mutable entering : bool;  (* some layer listens to [on_block] *)
  program : Program.t;
  arena : Arena.t;
  asize : int;
  guest : guest;
  code : code;
  lctx : Lower.ctx;
  env : Lower.env;
  entry_memo : int Lower.memo;  (* request handler names -> entries *)
  observed : bool array;  (* per block: an observation point *)
  mutable sync_layers : sync_layer list;  (* in the order they were added *)
  sync : (string * int) list option array;
      (* per block: the sync locals of every layer, with their slots ([-1]:
         a name no code sets, never defined) *)
  mutable on_sync : (Program.bref -> (string * int64) list -> unit) list;
      (* every layer's listener, in layer order *)
  mutable host_value : string -> int64;
  mutable icall_guard : (Program.bref -> int64 -> bool) option;
  mutable response_fault : response_fault option;
  (* The run in progress. *)
  mutable steps : int;
  mutable response : int64;
  mutable responded : bool;
}

and code = {
  blocks : block array;  (* by [Program.index_of] *)
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
}

and term =
  | L_goto of int * Event.obs_outcome
  | L_halt
  | L_branch of (Lower.env -> bool) * int * int
  | L_switch of switch
  | L_icall of (Lower.env -> int64) * int

and switch = {
  scrutinee : Lower.switch;  (* over [case_vals], sorted and deduped *)
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

(* Evaluation order within a statement is observable (the order of
   overflow and oob events, and which trap fires first) and fixed by the
   pinned digests in test_interp: [Set_buf] evaluates its value before
   its index, every other statement evaluates left to right. *)
let lower_stmt lc ~at (stmt : Stmt.t) : (t -> unit) option =
  let int = Lower.int_expr lc ~at and int64 = Lower.int64_expr lc ~at in
  match stmt with
  | Stmt.Set_field (f, e) -> (
    match Lower.scalar lc ~at f with
    | off, Width.W64 ->
      let fe = int64 e in
      Some (fun t -> Arena.write_u64 t.arena off (fe t.env))
    | off, w ->
      let write = Lower.int_writer w and fe = int e in
      Some (fun t -> write t.arena off (fe t.env)))
  | Stmt.Set_buf (b, idx, v) ->
    let buf = Lower.buffer lc ~at b in
    let fidx = int idx and fv = int v in
    Some
      (fun t ->
        let byte = fv t.env land 0xFF in
        let i = fidx t.env in
        Arena.set_byte_at t.arena (byte_at t at buf i ~write:true) byte)
  | Stmt.Set_local (n, e) ->
    let s = Lower.local_slot lc n and fe = int64 e in
    Some (fun t -> Lower.define t.env s (fe t.env))
  | Stmt.Buf_fill (b, off, len, v) ->
    let buf = Lower.buffer lc ~at b in
    let foff = int off and flen = int len and fv = int v in
    Some
      (fun t ->
        let off = foff t.env in
        let len = flen t.env in
        let byte = fv t.env land 0xFF in
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
    let foff = int buf_off and flen = int len and faddr = int64 addr in
    Some
      (fun t ->
        let off = foff t.env in
        let len = flen t.env in
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
    let foff = int buf_off and flen = int len and faddr = int64 addr in
    Some
      (fun t ->
        let off = foff t.env in
        let len = flen t.env in
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
    let s = Lower.local_slot lc local and faddr = int64 addr in
    let n = Width.bytes width in
    Some
      (fun t ->
        let addr = faddr t.env in
        Lower.define t.env s (read_le t.guest.read_byte addr (n - 1) 0L))
  | Stmt.Write_guest { addr; value; width } ->
    let faddr = int64 addr and fv = int64 value in
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
    let fe = int64 e in
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
    Some (fun t -> Lower.define t.env s (t.host_value key))

(* --- Lowering -------------------------------------------------------- *)

(* Block order, successor labels and handler entries come from the
   program's block index; an unresolved label fails here, naming its
   block. *)
let lower_program lc program =
  let resolve ~at i k label =
    match Program.succ_index program i k with
    | j -> j
    | exception Not_found -> Lower.unresolved ~at "no block %s" label
  in
  let tip j = Event.Tip (Program.address_of program (Program.bref_of_index program j)) in
  let entries = Hashtbl.create 8 in
  List.iter
    (fun (h : Program.handler) ->
      Hashtbl.replace entries h.hname (Program.entry_index program h.hname))
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
  let lower_term ~at i (term : Term.t) =
    match term with
    | Term.Goto l -> L_goto (resolve ~at i 0 l, Event.O_goto l)
    | Term.Halt -> L_halt
    | Term.Branch (cond, if_taken, if_not) ->
      L_branch (Lower.bool_expr lc ~at cond, resolve ~at i 0 if_taken, resolve ~at i 1 if_not)
    | Term.Switch (scrutinee, cases, default) ->
      (* Each case keeps its successor slot through the sort. *)
      let case_vals, slots =
        Lower.sorted_cases (List.mapi (fun k (v, label) -> (v, (k, label))) cases)
      in
      let case_dests = Array.map (fun (k, label) -> resolve ~at i k label) slots in
      let default_dest = resolve ~at i (List.length cases) default in
      L_switch
        {
          scrutinee = Lower.switch lc ~at scrutinee case_vals;
          case_dests;
          case_labels = Array.map snd slots;
          case_tips = Array.map tip case_dests;
          default = default_dest;
          default_label = default;
          default_tip = tip default_dest;
        }
    | Term.Icall (fnptr, next) ->
      L_icall (Lower.int64_expr lc ~at fnptr, resolve ~at i 0 next)
  in
  let blocks =
    Array.init (Program.block_count program) (fun id ->
        let bref = Program.bref_of_index program id in
        let b = Program.block_of_index program id in
        {
          id;
          bref;
          kind = b.kind;
          pge = Event.Pge (Program.address_of program bref);
          stmts = Array.of_list (List.filter_map (lower_stmt lc ~at:bref) b.stmts);
          term = lower_term ~at:bref id b.term;
        })
  in
  { blocks; entries; cb_vals = Array.of_list (List.map fst callbacks); cb_acts }

let create ~program ~arena ~guest () =
  let lctx = Lower.create (Arena.layout arena) in
  let code =
    try lower_program lctx program
    with Invalid_argument msg -> invalid_arg ("Interp.create: " ^ msg)
  in
  let n = Array.length code.blocks in
  let t =
    {
      hook_layers = [];
      hooks = silent_hooks;
      tracing = false;
      entering = false;
      program;
      arena;
      asize = Arena.size arena;
      guest;
      code;
      lctx;
      env = Lower.make_env lctx ~work:arena;
      entry_memo = Lower.memo 4 (-1);
      observed = Array.make n false;
      sync_layers = [];
      sync = Array.make n None;
      on_sync = [];
      host_value = (fun _ -> 0L);
      icall_guard = None;
      response_fault = None;
      steps = 0;
      response = 0L;
      responded = false;
    }
  in
  (* Hooks are read when an event fires, so [add_hooks] takes effect at
     once. *)
  t.env.record_overflow <- (fun o -> t.hooks.on_overflow o);
  t.env.oob_read <-
    (fun at buf i ->
      t.hooks.on_oob
        { Event.oob_block = at; oob_buf = buf; oob_index = i; oob_write = false });
  t

(* A run calls [on_trace] and [on_block], the two hooks of every block,
   only when some layer listens. *)
let set_hook_layers t layers =
  t.hook_layers <- layers;
  t.hooks <- List.fold_left (fun acc l -> merge_hooks acc !l) silent_hooks layers;
  t.tracing <- t.hooks.on_trace != silent_hooks.on_trace;
  t.entering <- t.hooks.on_block != silent_hooks.on_block

let add_hooks t hooks =
  let cell = ref hooks in
  set_hook_layers t (t.hook_layers @ [ cell ]);
  fun () -> set_hook_layers t (List.filter (fun c -> c != cell) t.hook_layers)

let with_hooks t hooks f = Fun.protect ~finally:(add_hooks t hooks) f
let program t = t.program
let arena t = t.arena

let set_observation t ~points =
  Array.fill t.observed 0 (Array.length t.observed) false;
  List.iter
    (fun p ->
      match Program.index_of t.program p with
      | i -> t.observed.(i) <- true
      | exception Not_found -> ())
    points

let clear_observation t = Array.fill t.observed 0 (Array.length t.observed) false

let set_host_values t f = t.host_value <- f

let set_icall_guard t g = t.icall_guard <- g

let set_response_fault t rf = t.response_fault <- rf
let response_fault t = t.response_fault

(* A block several layers list keeps the first layer's locals, then each
   later layer's new ones. *)
let set_sync_layers t layers =
  t.sync_layers <- layers;
  Array.fill t.sync 0 (Array.length t.sync) None;
  let slot l = (l, match Lower.find_local t.lctx l with Some s -> s | None -> -1) in
  List.iter
    (fun layer ->
      List.iter
        (fun (bref, locals) ->
          match Program.index_of t.program bref with
          | i ->
            let have = Option.value t.sync.(i) ~default:[] in
            let fresh = List.filter (fun l -> not (List.mem_assoc l have)) locals in
            t.sync.(i) <- Some (have @ List.map slot fresh)
          | exception Not_found -> ())
        layer.points)
    layers;
  t.on_sync <- List.map (fun layer -> layer.listener) layers

let add_sync_points t points ~on_sync =
  let layer = { points; listener = on_sync } in
  set_sync_layers t (t.sync_layers @ [ layer ]);
  fun () -> set_sync_layers t (List.filter (fun l -> l != layer) t.sync_layers)

(* --- Execution ------------------------------------------------------- *)

let observe t (b : block) outcome =
  t.hooks.on_observe { Event.index = b.id; block = b.bref; outcome }

let rec synced (env : Lower.env) = function
  | [] -> []
  | (name, s) :: rest ->
    if s >= 0 && Lower.defined env s then (name, env.locals.(s)) :: synced env rest
    else synced env rest

(* A plain loop, so handing one value to several layers allocates
   nothing. *)
let rec deliver bref values = function
  | [] -> ()
  | on_sync :: rest ->
    on_sync bref values;
    deliver bref values rest

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
  if depth > depth_limit then raise (Trap Event.Depth_limit);
  if entry = -2 then invalid_arg (Printf.sprintf "Interp.run: no handler %s" name);
  if entry = -1 then invalid_arg (Printf.sprintf "Interp.run: handler %s is empty" name);
  let b = t.code.blocks.(entry) in
  if depth = 0 && t.tracing then t.hooks.on_trace b.pge;
  step t depth b

and step t depth (b : block) =
  t.steps <- t.steps + 1;
  if t.steps > step_limit then raise (Trap Event.Step_limit);
  if t.entering then t.hooks.on_block b.bref b.kind;
  if Array.length b.stmts > 0 then exec_stmts t b;
  (match t.sync.(b.id) with
  | Some locals -> deliver b.bref (synced t.env locals) t.on_sync
  | None -> ());
  let observed = t.observed.(b.id) in
  match b.term with
  | L_goto (next, outcome) ->
    if observed then observe t b outcome;
    step t depth t.code.blocks.(next)
  | L_branch (cond, if_taken, if_not) ->
    let taken = eval_at t b cond in
    if t.tracing then t.hooks.on_trace (if taken then tnt_taken else tnt_not_taken);
    if observed then
      observe t b (if taken then Event.O_taken else Event.O_not_taken);
    step t depth t.code.blocks.(if taken then if_taken else if_not)
  | L_switch sw ->
    let i = eval_at t b sw.scrutinee.index in
    if t.tracing then
      t.hooks.on_trace (if i < 0 then sw.default_tip else sw.case_tips.(i));
    if observed then
      observe t b
        (Event.O_case
           (sw.scrutinee.value t.env, if i < 0 then sw.default_label else sw.case_labels.(i)));
    step t depth t.code.blocks.(if i < 0 then sw.default else sw.case_dests.(i))
  | L_icall (fnptr, next) ->
    let v = eval_at t b fnptr in
    if t.tracing then t.hooks.on_trace (Event.Tip v);
    if observed then observe t b (Event.O_icall v);
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
    if observed then observe t b Event.O_halt;
    if depth = 0 && t.tracing then t.hooks.on_trace Event.Pgd

let run t ~handler ~params =
  Lower.reset t.env;
  Lower.bind_params t.lctx t.env ~handler params;
  t.steps <- 0;
  t.responded <- false;
  let entry =
    match Lower.memo_find t.entry_memo t.code.entries handler with
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
