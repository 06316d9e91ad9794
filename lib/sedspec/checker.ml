open Devir

type strategy =
  | Parameter_check
  | Indirect_jump_check
  | Conditional_jump_check
  | Internal_error

type mode = Protection | Enhancement

type anomaly = {
  strategy : strategy;
  at : Program.bref option;
  detail : string;
  pre_execution : bool;
}

type engine = Interpreted | Compiled

type containment = Fail_closed | Fail_open_warn

type config = {
  strategies : strategy list;
  mode : mode;
  walk_limit : int;
  engine : engine;
  on_internal_error : containment;
}

let default_config =
  {
    strategies = [ Parameter_check; Indirect_jump_check; Conditional_jump_check ];
    mode = Protection;
    walk_limit = 20_000;
    engine = Compiled;
    on_internal_error = Fail_closed;
  }

type stats = {
  mutable interactions : int;
  mutable walks_ok : int;
  mutable bails : int;
  mutable deferred : int;
  mutable nodes_walked : int;
}

(* Command context over dense command ids (indices into [cmd_keys]):
   [-1] = no command, [-2] = unknown (the permissive state after a bail
   or resync).  An unboxed int instead of a variant keeps every walk's
   context save/restore allocation-free under both engines. *)
let cctx_none = -1
let cctx_unknown = -2

type pending = { p_handler : string; p_params : (string * int64) list }

(* ES-CFG coverage accumulator: the set of nodes entered by walks and the
   set of ordered node pairs traversed consecutively in walk order —
   including the seam between one walk's last node and the next walk's
   first, which is what makes novel command orderings visible as coverage.
   Feedback signal for the coverage-guided fuzzer; recording is identical
   under both engines, so coverage divergence is itself an oracle. *)
type coverage = {
  cov_nodes : (Program.bref, unit) Hashtbl.t;
  cov_edges : (Program.bref * Program.bref, unit) Hashtbl.t;
}

(* Pre-classified reduced (non-node) blocks, so the reference walk does not
   re-run [lift_dsod] on every pass-through of every walk. *)
type pass = P_goto of Program.bref | P_halt | P_off

(* Walk outcomes as int codes + result fields on [t] (below): the walk
   itself is on the per-interaction hot path and a [W_ok of ctx]-style
   variant would allocate per walk. *)
let res_ok = 0
let res_anomaly = 1
let res_bail = 2
let res_defer = 3

type t = {
  spec : Es_cfg.t;
  mutable config : config;
  device_arena : Arena.t;
  guest : Interp.guest;
  shadow : Arena.t;
  work : Arena.t;
  mutable ctx : int;  (** Committed command context ([cctx_*] or id). *)
  cmd_keys : Es_cfg.cmd_key array;
      (** Dense command id -> key; same [Es_cfg.commands] order as
          {!Compile.lower} uses, so ids agree between engines. *)
  cmd_ids : (Es_cfg.cmd_key, int) Hashtbl.t;
  mutable anomalies_rev : anomaly list;
  stats : stats;
  sync_values : (Program.bref * string, int64 Queue.t) Hashtbl.t;
  mutable pending : pending option;
  mutable staged : bool;
      (** The pre-run walk succeeded: [work] holds its shadow spans and
          [staged_ctx] its command context until [after] commits them. *)
  mutable staged_ctx : int;
  mutable dirty : bool;
  walk_locals : (string, int64 * bool) Hashtbl.t;
  mutable pass_map : (Program.bref, pass) Hashtbl.t option;
      (** Built on the first interpreted walk; the compiled engine never
          needs it, and fleet-scale VMs should not pay for it. *)
  mutable compiled : Compile.t option;
      (** Immutable compiled spec: either installed at creation (the
          fleet's shared arena) or lowered lazily on the first walk. *)
  mutable cursor : Compile.cursor option;
      (** This checker's private mutable walk state over [compiled]. *)
  tracked_buffers : (string, unit) Hashtbl.t;
  spans : (int * int) list;
      (** Byte extents of the tracked shadow state (scalars + relevant
          buffers), merged; everything else is bounds-checked but its
          bytes are not mirrored. *)
  mutable inline_halt : anomaly option;
      (** Set by the inline icall guard when it vetoes a call. *)
  mutable inline_warn : anomaly option;
  mutable cov : coverage option;
      (** When set, every walk records ES-CFG node/edge coverage here. *)
  mutable cov_prev : int;
      (** Block index of the previous node entered (edge recording); -1
          before the first node since coverage was set. *)
  mutable cov_seen : Bytes.t;
      (** What this checker has put into [cov] since it was set: node bits
          over the program's block index, then edge bits at
          [block_count + prev * block_count + index].  Empty until
          coverage is first set. *)
  (* Result fields for the int-coded walk: [w_ctx] is valid after
     [res_ok], [w_anomaly] after [res_anomaly]. *)
  mutable w_ctx : int;
  mutable w_anomaly : anomaly option;
  (* Strategy flags, kept in sync with [config] (hot-path lookups). *)
  mutable en_param : bool;
  mutable en_indirect : bool;
  mutable en_cond : bool;
  mutable fault_hook : (unit -> unit) option;
      (** Fault-injection seam: invoked at the top of every walk, under
          either engine, before any node is entered.  May raise. *)
  mutable internal_errors : int;
      (** Exceptions contained by the interposer wrapper (monotone;
          survives [drain_anomalies], cleared by [reset]). *)
  mutable heals : int;  (** Resyncs performed by [heal] since [reset]. *)
  mutable deadline : int;
      (** Watchdog step budget per walk; [max_int] = off.  Checked by the
          same per-step counter as [walk_limit] under both engines, so an
          overrun is deterministic and engine-independent. *)
  mutable deadline_overruns : int;
      (** Walks aborted by the watchdog (monotone; cleared by [reset]). *)
}

exception Deadline_exceeded of int

let () =
  Printexc.register_printer (function
    | Deadline_exceeded budget ->
      Some (Printf.sprintf "walk deadline exceeded (watchdog step budget %d)" budget)
    | _ -> None)

let strategy_to_string = function
  | Parameter_check -> "parameter-check"
  | Indirect_jump_check -> "indirect-jump-check"
  | Conditional_jump_check -> "conditional-jump-check"
  | Internal_error -> "internal-error"

let mode_to_string = function
  | Protection -> "protection"
  | Enhancement -> "enhancement"

let engine_to_string = function
  | Compiled -> "compiled"
  | Interpreted -> "interpreted"

let pp_anomaly ppf a =
  Format.fprintf ppf "[%s]%s %s%s"
    (strategy_to_string a.strategy)
    (if a.pre_execution then "" else " (post-sync)")
    (match a.at with
    | Some b -> Program.bref_to_string b ^ ": "
    | None -> "")
    a.detail

(* Wire a private cursor over [c] (shared or private) into this checker.
   The compiled spec itself is immutable: everything per-VM lives in the
   cursor, whose scratch shadow is the checker's own [work] arena. *)
let install_compiled t (c : Compile.t) =
  if not (c.Compile.spec == t.spec) then
    invalid_arg "Checker.install_compiled: arena lowered from a different spec";
  let cur = Compile.make_cursor ~work:t.work c in
  cur.Compile.guest_read <- t.guest.Interp.read_byte;
  cur.Compile.sync_pop <-
    (fun bref local ->
      match Hashtbl.find_opt t.sync_values (bref, local) with
      | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
      | _ -> None);
  t.compiled <- Some c;
  t.cursor <- Some cur

let create ?(config = default_config) ?compiled ~spec ~device_arena ~guest () =
  let layout = Program.layout (Es_cfg.program spec) in
  let shadow = Arena.create layout in
  Arena.copy_into ~src:device_arena ~dst:shadow;
  let tracked_buffers = Hashtbl.create 8 in
  List.iter
    (fun b -> Hashtbl.replace tracked_buffers b ())
    (Es_cfg.selection spec).Selection.tracked_buffers;
  (* Merge adjacent tracked extents into copy spans. *)
  let spans =
    let raw =
      List.filter_map
        (fun (f : Layout.field) ->
          let keep =
            match f.kind with
            | Layout.Reg _ | Layout.Fn_ptr -> true
            | Layout.Buf _ -> Hashtbl.mem tracked_buffers f.name
          in
          if keep then
            Some (Layout.offset layout f.name, Layout.field_size f)
          else None)
        (Layout.fields layout)
    in
    let rec merge = function
      | (o1, l1) :: (o2, l2) :: rest when o1 + l1 = o2 ->
        merge ((o1, l1 + l2) :: rest)
      | span :: rest -> span :: merge rest
      | [] -> []
    in
    merge raw
  in
  let cmd_keys = Array.of_list (Es_cfg.commands spec) in
  let cmd_ids = Hashtbl.create (max (Array.length cmd_keys * 2) 8) in
  Array.iteri (fun i key -> Hashtbl.replace cmd_ids key i) cmd_keys;
  let t =
    {
      spec;
      config;
      device_arena;
      guest;
      shadow;
      work = Arena.create layout;
      ctx = cctx_none;
      cmd_keys;
      cmd_ids;
      anomalies_rev = [];
      stats =
        { interactions = 0; walks_ok = 0; bails = 0; deferred = 0; nodes_walked = 0 };
      sync_values = Hashtbl.create 8;
      pending = None;
      staged = false;
      staged_ctx = cctx_none;
      dirty = false;
      walk_locals = Hashtbl.create 32;
      pass_map = None;
      compiled = None;
      cursor = None;
      tracked_buffers;
      spans;
      inline_halt = None;
      inline_warn = None;
      cov = None;
      cov_prev = -1;
      cov_seen = Bytes.empty;
      w_ctx = cctx_none;
      w_anomaly = None;
      en_param = List.mem Parameter_check config.strategies;
      en_indirect = List.mem Indirect_jump_check config.strategies;
      en_cond = List.mem Conditional_jump_check config.strategies;
      fault_hook = None;
      internal_errors = 0;
      heals = 0;
      deadline = max_int;
      deadline_overruns = 0;
    }
  in
  (match compiled with Some c -> install_compiled t c | None -> ());
  t

let compiled_arena t = t.compiled

let config t = t.config

let set_config t config =
  t.config <- config;
  t.en_param <- List.mem Parameter_check config.strategies;
  t.en_indirect <- List.mem Indirect_jump_check config.strategies;
  t.en_cond <- List.mem Conditional_jump_check config.strategies
let stats t = t.stats
let anomalies t = List.rev t.anomalies_rev

let drain_anomalies t =
  let out = List.rev t.anomalies_rev in
  t.anomalies_rev <- [];
  out

let resync t =
  Arena.copy_into ~src:t.device_arena ~dst:t.shadow;
  t.ctx <- cctx_unknown

(* Return the checker to its just-attached state against the (already
   reset) live control structure.  Keeps the compiled spec and its
   cursor: recycling machine+checker pairs across replays is what makes
   fuzzing throughput viable, the compiled spec is immutable, and every
   walk re-initialises the cursor. *)
let reset t =
  Arena.copy_into ~src:t.device_arena ~dst:t.shadow;
  t.ctx <- cctx_none;
  t.anomalies_rev <- [];
  t.stats.interactions <- 0;
  t.stats.walks_ok <- 0;
  t.stats.bails <- 0;
  t.stats.deferred <- 0;
  t.stats.nodes_walked <- 0;
  Hashtbl.reset t.sync_values;
  t.pending <- None;
  t.staged <- false;
  t.staged_ctx <- cctx_none;
  t.dirty <- false;
  t.inline_halt <- None;
  t.inline_warn <- None;
  t.cov <- None;
  t.cov_prev <- -1;
  Bytes.fill t.cov_seen 0 (Bytes.length t.cov_seen) '\000';
  t.w_ctx <- cctx_none;
  t.w_anomaly <- None;
  t.fault_hook <- None;
  t.internal_errors <- 0;
  t.heals <- 0;
  t.deadline <- max_int;
  t.deadline_overruns <- 0

(* Whether bytes [off, stop) of two arenas differ. *)
let rec bytes_differ a b off stop =
  off < stop
  && (Arena.get_byte_at a off <> Arena.get_byte_at b off || bytes_differ a b (off + 1) stop)

(* Whether a scalar of [ds] from entry [i] on differs between two arenas.
   A name the layout does not resolve counts as differing, so the by-name
   pass below raises on it as [Arena.get] does. *)
let rec scalars_differ a b (ds : (string * int * int) array) i =
  if i >= Array.length ds then false
  else
    let _, off, size = ds.(i) in
    off < 0 || bytes_differ a b off (off + size) || scalars_differ a b ds (i + 1)

(* Only decision-relevant parameters are guaranteed to match: fields pulled
   in purely as dependencies may be computed from untracked buffer content
   (which never reaches a decision, by the relevance closure).  The remedy
   runs this on every clean tick, so the common answer (no divergence)
   compares bytes at offsets the spec resolved once and allocates
   nothing; the triples are built by name only when a scalar differs. *)
let shadow_matches_device t =
  let ds = Es_cfg.decision_scalars t.spec in
  if not (scalars_differ t.shadow t.device_arena ds 0) then []
  else
    List.filter_map
      (fun (name, _, _) ->
        let s = Arena.get t.shadow name and d = Arena.get t.device_arena name in
        if s <> d then Some (name, s, d) else None)
      (Array.to_list ds)

let record_sync t bref values =
  List.iter
    (fun (local, v) ->
      let key = (bref, local) in
      let q =
        match Hashtbl.find_opt t.sync_values key with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add t.sync_values key q;
          q
      in
      Queue.push v q)
    values

(* --- Coverage ---------------------------------------------------------- *)

let coverage_create () =
  { cov_nodes = Hashtbl.create 128; cov_edges = Hashtbl.create 256 }

let coverage_node_count c = Hashtbl.length c.cov_nodes
let coverage_edge_count c = Hashtbl.length c.cov_edges

let coverage_nodes c =
  List.sort Program.bref_compare
    (Hashtbl.fold (fun b () acc -> b :: acc) c.cov_nodes [])

let edge_compare (a1, a2) (b1, b2) =
  match Program.bref_compare a1 b1 with
  | 0 -> Program.bref_compare a2 b2
  | n -> n

let coverage_edges c =
  List.sort edge_compare (Hashtbl.fold (fun e () acc -> e :: acc) c.cov_edges [])

let coverage_absorb ~into c =
  let fresh = ref 0 in
  let merge src dst =
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem dst k) then begin
          Hashtbl.replace dst k ();
          incr fresh
        end)
      src
  in
  merge c.cov_nodes into.cov_nodes;
  merge c.cov_edges into.cov_edges;
  !fresh

(* The dense record is allocated on the first coverage a checker gets
   (fleet-scale VMs that never record coverage do not pay for it) and
   cleared on every call: its bits stand only for what went into the
   coverage installed now. *)
let set_coverage t cov =
  t.cov <- cov;
  t.cov_prev <- -1;
  match cov with
  | Some _ when Bytes.length t.cov_seen = 0 ->
    let n = Program.block_count (Es_cfg.program t.spec) in
    t.cov_seen <- Bytes.make (((n + (n * n)) / 8) + 1) '\000'
  | _ -> Bytes.fill t.cov_seen 0 (Bytes.length t.cov_seen) '\000'

(* Recording the ES-CFG node at block index [i] into coverage [c].  A node
   or edge this checker already recorded costs a bit probe; only a new one
   touches the bref-keyed tables.  Coverage only grows, so a set bit stays
   true of the tables. *)
let cov_record t c i bref =
  let seen = t.cov_seen in
  if not (Compile.bit seen i) then begin
    Compile.set_bit seen i;
    Hashtbl.replace c.cov_nodes bref ()
  end;
  let p = t.cov_prev in
  if p >= 0 then begin
    let program = Es_cfg.program t.spec in
    let n = Program.block_count program in
    let e = n + (p * n) + i in
    if not (Compile.bit seen e) then begin
      Compile.set_bit seen e;
      Hashtbl.replace c.cov_edges (Program.bref_of_index program p, bref) ()
    end
  end;
  t.cov_prev <- i

(* Entering the ES-CFG node at block index [i] during a walk (either
   engine).  Inlined, so with coverage off (the steady state) a node pays
   one immediate match and no call. *)
let[@inline] cov_enter t i bref =
  match t.cov with None -> () | Some c -> cov_record t c i bref

let enabled t = function
  | Parameter_check -> t.en_param
  | Indirect_jump_check -> t.en_indirect
  | Conditional_jump_check -> t.en_cond
  | Internal_error -> true (* diagnostic channel, not a strategy toggle *)

(* Walk-control exceptions. *)
exception Anomaly_found of anomaly
exception Bail of string
exception Defer

let anomaly strategy at detail =
  raise (Anomaly_found { strategy; at; detail; pre_execution = true })

(* Linkage: is this expression's value traceable to device state or I/O
   request data?  Guest-memory and host-value temporaries are not — the
   parameter check's blind spot. *)
let rec linked locals (e : Expr.t) =
  match e with
  | Expr.Const _ -> false
  | Expr.Field _ | Expr.Buf_len _ | Expr.Buf_byte _ -> true
  | Expr.Param _ -> true
  | Expr.Local n -> (
    match Hashtbl.find_opt locals n with Some (_, l) -> l | None -> false)
  | Expr.Binop (_, _, a, b) | Expr.Cmp (_, a, b) ->
    linked locals a || linked locals b
  | Expr.Not a -> linked locals a

let force_pass_map t =
  match t.pass_map with
  | Some pm -> pm
  | None ->
    let pm = Hashtbl.create 64 in
    Program.iter_blocks (Es_cfg.program t.spec) (fun bref block ->
        if Option.is_none (Es_cfg.node t.spec bref) then begin
          let p =
            match (Es_cfg.lift_dsod block.Block.stmts, block.Block.term) with
            | [], Term.Goto l ->
              P_goto { Program.handler = bref.handler; label = l }
            | [], Term.Halt -> P_halt
            | _ -> P_off
          in
          Hashtbl.add pm bref p
        end);
    t.pass_map <- Some pm;
    pm

(* The reference (interpreted) walk: tree-walking evaluation straight off
   the ES-CFG.  Kept as the semantic baseline the compiled walk is
   differentially tested against. *)
let walk_interpreted t ~sync ~handler ~params =
  let program = Es_cfg.program t.spec in
  let layout = Program.layout program in
  let selection = Es_cfg.selection t.spec in
  let pass_map = force_pass_map t in
  Arena.copy_spans ~spans:t.spans ~src:t.shadow ~dst:t.work;
  (* Refresh function-pointer parameters from the live control structure:
     they are never legitimately rewritten between interactions, so this
     lets the indirect jump check see corruption before the hijack runs. *)
  List.iter
    (fun f -> Arena.set t.work f (Arena.get t.device_arena f))
    selection.Selection.fn_ptrs;
  let locals = t.walk_locals in
  Hashtbl.reset locals;
  let ctx = ref t.ctx in
  let steps = ref 0 in
  let overflow : Interp.Eval.overflow option ref = ref None in
  let eval_ctx =
    {
      Interp.Eval.get_field = Arena.get t.work;
      get_buf_byte = Arena.get_buf_byte t.work;
      buf_len = Layout.buf_size layout;
      get_param =
        (fun name ->
          match List.assoc_opt name params with
          | Some v -> v
          | None -> raise (Interp.Eval.Undefined_param name));
      get_local =
        (fun name ->
          match Hashtbl.find_opt locals name with
          | Some (v, _) -> v
          | None -> raise (Interp.Eval.Undefined_local name));
      record_overflow = (fun o -> if !overflow = None then overflow := Some o);
    }
  in
  let eval e =
    overflow := None;
    Interp.Eval.eval eval_ctx e
  in
  let buf_check at buf ~off ~len ~lnk =
    if enabled t Parameter_check && lnk then begin
      let size = Layout.buf_size layout buf in
      if off < 0 || off + len > size then
        anomaly Parameter_check (Some at)
          (Printf.sprintf "buffer overflow: %s[%d..%d) exceeds size %d" buf off
             (off + len) size)
    end
  in
  let read_guest_scalar addr width =
    let n = Width.bytes width in
    let rec go i acc =
      if i < 0 then acc
      else
        go (i - 1)
          (Int64.logor (Int64.shift_left acc 8)
             (Int64.of_int (t.guest.Interp.read_byte (Int64.add addr (Int64.of_int i)))))
    in
    go (n - 1) 0L
  in
  let exec_stmt at (stmt : Stmt.t) =
    match stmt with
    | Stmt.Set_field (f, e) ->
      let v = eval e in
      (match !overflow with
      | Some o when enabled t Parameter_check ->
        anomaly Parameter_check (Some at)
          (Format.asprintf "integer overflow computing %s: %a" f Interp.Eval.pp_overflow o)
      | _ -> ());
      Arena.set t.work f v
    | Stmt.Set_local (n, e) ->
      let v = eval e in
      Hashtbl.replace locals n (v, linked locals e)
    | Stmt.Set_buf (b, idx, v) ->
      let iv = Int64.to_int (eval idx) in
      buf_check at b ~off:iv ~len:1 ~lnk:(linked locals idx);
      if Hashtbl.mem t.tracked_buffers b then begin
        let vv = Int64.to_int (eval v) land 0xFF in
        Arena.set_buf_byte t.work b iv vv
      end
    | Stmt.Buf_fill (b, off, len, v) ->
      let offv = Int64.to_int (eval off) in
      let lenv = Int64.to_int (eval len) in
      buf_check at b ~off:offv ~len:lenv
        ~lnk:(linked locals off || linked locals len);
      if Hashtbl.mem t.tracked_buffers b then begin
        let vv = Int64.to_int (eval v) land 0xFF in
        for i = offv to offv + lenv - 1 do
          Arena.set_buf_byte t.work b i vv
        done
      end
    | Stmt.Copy_from_guest { buf; buf_off; addr; len } ->
      let offv = Int64.to_int (eval buf_off) in
      let lenv = Int64.to_int (eval len) in
      buf_check at buf ~off:offv ~len:lenv
        ~lnk:(linked locals buf_off || linked locals len);
      if Hashtbl.mem t.tracked_buffers buf then begin
        let addrv = eval addr in
        for i = 0 to lenv - 1 do
          Arena.set_buf_byte t.work buf (offv + i)
            (t.guest.Interp.read_byte (Int64.add addrv (Int64.of_int i)))
        done
      end
    | Stmt.Copy_to_guest { buf; buf_off; len; _ } ->
      (* Guest memory is never written during simulation; only the device
         buffer bounds are validated. *)
      let offv = Int64.to_int (eval buf_off) in
      let lenv = Int64.to_int (eval len) in
      buf_check at buf ~off:offv ~len:lenv
        ~lnk:(linked locals buf_off || linked locals len)
    | Stmt.Read_guest { local; addr; width } ->
      let addrv = eval addr in
      Hashtbl.replace locals local (read_guest_scalar addrv width, false)
    | Stmt.Host_value { local; key = _ } ->
      if not sync then raise Defer
      else begin
        let key = (at, local) in
        match Hashtbl.find_opt t.sync_values key with
        | Some q when not (Queue.is_empty q) ->
          Hashtbl.replace locals local (Queue.pop q, false)
        | _ -> raise (Bail "missing sync value")
      end
    | Stmt.Respond _ | Stmt.Write_guest _ | Stmt.Note _ -> ()
  in
  let check_access (bref : Program.bref) =
    let cx = !ctx in
    let ok =
      if cx = cctx_unknown then true
      else if cx = cctx_none then Es_cfg.no_cmd_allows t.spec bref
      else
        Es_cfg.cmd_allows t.spec t.cmd_keys.(cx) bref
        || Es_cfg.no_cmd_allows t.spec bref
    in
    if not ok then
      if enabled t Conditional_jump_check then
        anomaly Conditional_jump_check (Some bref)
          "block not accessible under the current device command"
  in
  let off_graph bref reason =
    if enabled t Conditional_jump_check then
      anomaly Conditional_jump_check (Some bref) reason
    else raise (Bail reason)
  in
  let rec walk_block (bref : Program.bref) stack =
    incr steps;
    if !steps > t.deadline then begin
      t.deadline_overruns <- t.deadline_overruns + 1;
      raise (Deadline_exceeded t.deadline)
    end;
    if !steps > t.config.walk_limit then
      if enabled t Conditional_jump_check then
        anomaly Conditional_jump_check (Some bref)
          "walk limit exceeded (irregular device operation / possible infinite loop)"
      else raise (Bail "walk limit exceeded");
    let sibling label : Program.bref = { handler = bref.handler; label } in
    let i = Es_cfg.index_of t.spec bref in
    match Es_cfg.node_at t.spec i with
    | None -> (
      (* Blocks with no device-state operations and an unconditional
         transfer are exactly what control-flow reduction removes: pass
         through.  Anything else off-graph is an untrained path. *)
      match Hashtbl.find_opt pass_map bref with
      | Some (P_goto next) -> walk_block next stack
      | Some P_halt -> (
        match stack with
        | cont :: rest -> walk_block cont rest
        | [] -> ())
      | Some P_off | None -> off_graph bref "block never observed in training")
    | Some n -> (
      t.stats.nodes_walked <- t.stats.nodes_walked + 1;
      cov_enter t i bref;
      check_access bref;
      List.iter (exec_stmt bref) n.dsod;
      let clear_if_cmd_end () = if n.kind = Block.Cmd_end then ctx := cctx_none in
      match n.term with
      | Term.Goto l ->
        clear_if_cmd_end ();
        walk_block (sibling l) stack
      | Term.Halt -> (
        clear_if_cmd_end ();
        match stack with
        | cont :: rest -> walk_block cont rest
        | [] -> ())
      | Term.Branch (cond, if_taken, if_not) ->
        let taken = Interp.Eval.truthy (eval cond) in
        if enabled t Conditional_jump_check then
          if (taken && n.taken = 0) || ((not taken) && n.not_taken = 0) then
            anomaly Conditional_jump_check (Some bref)
              (Printf.sprintf "untraversed branch direction (%s)"
                 (if taken then "taken" else "not taken"));
        clear_if_cmd_end ();
        walk_block (sibling (if taken then if_taken else if_not)) stack
      | Term.Switch (scrutinee, cases, default) ->
        let v = eval scrutinee in
        let dest =
          match List.assoc_opt v cases with Some l -> l | None -> default
        in
        (if n.kind = Block.Cmd_decision then
           let key = (bref, v) in
           if Es_cfg.cmd_known t.spec key then
             ctx :=
               (match Hashtbl.find_opt t.cmd_ids key with
               | Some i -> i
               | None -> cctx_unknown)
           else if enabled t Conditional_jump_check then
             anomaly Conditional_jump_check (Some bref)
               (Printf.sprintf "unknown device command %Ld" v)
           else ctx := cctx_unknown);
        if
          enabled t Conditional_jump_check && not (List.mem (v, dest) n.cases)
        then
          anomaly Conditional_jump_check (Some bref)
            (Printf.sprintf "untraversed switch case %Ld" v);
        clear_if_cmd_end ();
        walk_block (sibling dest) stack
      | Term.Icall (fnptr, next) -> (
        let v = eval fnptr in
        if enabled t Indirect_jump_check && not (List.mem v n.itargets) then
          anomaly Indirect_jump_check (Some bref)
            (Printf.sprintf "indirect call to illegitimate target 0x%Lx" v);
        clear_if_cmd_end ();
        let continue_at = sibling next in
        match Program.find_callback program v with
        | Some { Program.action = Program.Run_handler callee; _ } ->
          let callee_entry : Program.bref =
            match (Program.find_handler program callee).blocks with
            | b :: _ -> { handler = callee; label = b.Block.label }
            | [] -> raise (Bail "empty chained handler")
          in
          walk_block callee_entry (continue_at :: stack)
        | Some _ -> walk_block continue_at stack
        | None -> raise (Bail "indirect call to unknown callback")))
  in
  let entry = Es_cfg.entry_of t.spec handler in
  match walk_block entry [] with
  | () ->
    t.w_ctx <- !ctx;
    res_ok
  | exception Anomaly_found a ->
    t.w_anomaly <- Some a;
    res_anomaly
  | exception Bail _ -> res_bail
  | exception Defer -> res_defer
  | exception Arena.Out_of_arena _ -> res_bail
  | exception Interp.Eval.Div_by_zero -> res_bail
  | exception Interp.Eval.Undefined_local _ -> res_bail
  | exception Interp.Eval.Undefined_param _ -> res_bail

(* --- Compiled walk --------------------------------------------------- *)

let anomaly_of_fault (f : Compile.fault) =
  match f with
  | Compile.Overflow { at; field; ov } ->
    {
      strategy = Parameter_check;
      at = Some at;
      detail =
        Format.asprintf "integer overflow computing %s: %a" field
          Interp.Eval.pp_overflow ov;
      pre_execution = true;
    }
  | Compile.Buf_bounds { at; buf; off; len; size } ->
    {
      strategy = Parameter_check;
      at = Some at;
      detail =
        Printf.sprintf "buffer overflow: %s[%d..%d) exceeds size %d" buf off
          (off + len) size;
      pre_execution = true;
    }

(* A command decision: enter command [id], or meet a command training
   never saw ([id] = -1). *)
let enter_command t cur (n : Compile.cnode) id v =
  if id >= 0 then cur.Compile.cctx <- id
  else if t.en_cond then
    anomaly Conditional_jump_check (Some n.Compile.bref)
      (Printf.sprintf "unknown device command %Ld" v)
  else cur.Compile.cctx <- cctx_unknown

let untraversed_case (n : Compile.cnode) v =
  anomaly Conditional_jump_check (Some n.Compile.bref)
    (Printf.sprintf "untraversed switch case %Ld" v)

(* A step past [cur.bound] = [min walk_limit deadline]: the watchdog is
   tested first, so a deadline at or below the walk limit fires; a step
   past the bound but within the deadline is past the walk limit. *)
let past_bound t (cur : Compile.cursor) (bref : Program.bref) =
  if cur.Compile.steps > cur.Compile.deadline then begin
    t.deadline_overruns <- t.deadline_overruns + 1;
    raise (Deadline_exceeded cur.Compile.deadline)
  end;
  if t.en_cond then
    anomaly Conditional_jump_check (Some bref)
      "walk limit exceeded (irregular device operation / possible infinite loop)"
  else raise (Compile.Bail "walk limit exceeded")

let cbump t (cur : Compile.cursor) bref =
  cur.Compile.steps <- cur.Compile.steps + 1;
  if cur.Compile.steps > cur.Compile.bound then past_bound t cur bref

(* The compiled walk driver, as top-level mutually-recursive functions
   over (checker, shared compiled spec, private cursor): no local
   closures, so the steady-state walk allocates nothing in the driver
   itself.  Expressions that read only narrow state allocate nothing
   either; what remains is an int64 box per narrow value stored in a
   local or per wide value computed (DESIGN.md §4g). *)
let rec cgoto t (c : Compile.t) cur (d : Compile.dest) =
  let chain = d.Compile.chain in
  for i = 0 to Array.length chain - 1 do
    cbump t cur chain.(i)
  done;
  match d.Compile.target with
  | Compile.T_node id -> center t c cur c.Compile.nodes.(id)
  | Compile.T_pop -> cpop t c cur
  | Compile.T_off bref ->
    if t.en_cond then
      anomaly Conditional_jump_check (Some bref)
        "block never observed in training"
    else raise (Compile.Bail "block never observed in training")
  | Compile.T_spin cycle ->
    (* Burns steps until the walk limit trips. *)
    let len = Array.length cycle in
    let i = ref 0 in
    while true do
      cbump t cur cycle.(!i);
      i := if !i + 1 = len then 0 else !i + 1
    done

and cpop t c (cur : Compile.cursor) =
  if cur.Compile.depth > 0 then begin
    cur.Compile.depth <- cur.Compile.depth - 1;
    cgoto t c cur cur.Compile.stack.(cur.Compile.depth)
  end

and center t (c : Compile.t) (cur : Compile.cursor) (n : Compile.cnode) =
  cbump t cur n.Compile.bref;
  cur.Compile.walked <- cur.Compile.walked + 1;
  cov_enter t n.Compile.index n.Compile.bref;
  (* A block open with no command current is open under every context. *)
  if not n.Compile.no_cmd then begin
    let cx = cur.Compile.cctx in
    if
      cx <> cctx_unknown
      && (cx = cctx_none || not (Compile.bit c.Compile.cmd_bits.(cx) n.Compile.id))
    then
      if t.en_cond then
        anomaly Conditional_jump_check (Some n.Compile.bref)
          "block not accessible under the current device command"
  end;
  let stmts = n.Compile.stmts in
  for i = 0 to Array.length stmts - 1 do
    stmts.(i) cur
  done;
  match n.Compile.term with
  | Compile.C_goto d ->
    if n.Compile.is_cmd_end then cur.Compile.cctx <- cctx_none;
    cgoto t c cur d
  | Compile.C_halt ->
    if n.Compile.is_cmd_end then cur.Compile.cctx <- cctx_none;
    cpop t c cur
  | Compile.C_branch { cond; taken0; not_taken0; if_taken; if_not } ->
    let taken = cond cur.Compile.env in
    if t.en_cond then
      if (taken && taken0) || ((not taken) && not_taken0) then
        anomaly Conditional_jump_check (Some n.Compile.bref)
          (Printf.sprintf "untraversed branch direction (%s)"
             (if taken then "taken" else "not taken"));
    if n.Compile.is_cmd_end then cur.Compile.cctx <- cctx_none;
    cgoto t c cur (if taken then if_taken else if_not)
  | Compile.C_switch sw ->
    let idx = sw.Compile.scrutinee.index cur.Compile.env in
    if idx >= 0 then begin
      (match sw.Compile.cmd_of with
      | Some _ -> enter_command t cur n sw.Compile.case_cmd.(idx) sw.Compile.case_vals.(idx)
      | None -> ());
      if t.en_cond && not sw.Compile.case_seen.(idx) then
        untraversed_case n sw.Compile.case_vals.(idx)
    end
    else begin
      let v = sw.Compile.scrutinee.value cur.Compile.env in
      (match sw.Compile.cmd_of with
      | Some tbl ->
        let id = match Hashtbl.find tbl v with id -> id | exception Not_found -> -1 in
        enter_command t cur n id v
      | None -> ());
      if t.en_cond && not (Compile.case_observed sw v sw.Compile.default_label) then
        untraversed_case n v
    end;
    if n.Compile.is_cmd_end then cur.Compile.cctx <- cctx_none;
    cgoto t c cur
      (if idx < 0 then sw.Compile.default else sw.Compile.case_dests.(idx))
  | Compile.C_icall ic -> (
    let v = ic.Compile.fnptr cur.Compile.env in
    if t.en_indirect && not (ic.Compile.legit v) then
      anomaly Indirect_jump_check (Some n.Compile.bref)
        (Printf.sprintf "indirect call to illegitimate target 0x%Lx" v);
    if n.Compile.is_cmd_end then cur.Compile.cctx <- cctx_none;
    match Hashtbl.find ic.Compile.actions v with
    | Compile.A_chain entry ->
      Compile.push_dest cur ic.Compile.next;
      cgoto t c cur entry
    | Compile.A_plain -> cgoto t c cur ic.Compile.next
    | Compile.A_empty -> raise (Compile.Bail "empty chained handler")
    | exception Not_found ->
      raise (Compile.Bail "indirect call to unknown callback"))

let walk_compiled t ~sync ~handler ~params =
  (match t.cursor with
  | Some _ -> ()
  | None -> (
    (* Lazy private lowering: only checkers created without a shared
       arena (e.g. from persisted specs) ever take this path. *)
    match t.compiled with
    | Some c -> install_compiled t c
    | None -> install_compiled t (Compile.lower t.spec)));
  let c = match t.compiled with Some c -> c | None -> assert false in
  let cur = match t.cursor with Some cur -> cur | None -> assert false in
  Arena.copy_spans ~spans:t.spans ~src:t.shadow ~dst:t.work;
  (* Function-pointer refresh from the live control structure, as byte
     spans instead of name lookups (see the interpreted walk for why). *)
  Arena.copy_spans ~spans:c.Compile.fn_ptr_spans ~src:t.device_arena
    ~dst:t.work;
  Compile.cursor_start cur ~sync ~en_param:t.en_param
    ~limit:t.config.walk_limit ~deadline:t.deadline;
  Compile.bind_params c cur ~handler params;
  cur.Compile.cctx <- t.ctx;
  let res =
    match
      match Compile.entry c cur handler with
      | d -> cgoto t c cur d
      | exception Not_found ->
        (* Unknown or empty handler: surface the exact exception the
           reference's [Es_cfg.entry_of] would raise. *)
        ignore (Es_cfg.entry_of t.spec handler : Program.bref);
        raise Not_found
    with
    | () ->
      t.w_ctx <- cur.Compile.cctx;
      res_ok
    | exception Anomaly_found a ->
      t.w_anomaly <- Some a;
      res_anomaly
    | exception Compile.Fault f ->
      t.w_anomaly <- Some (anomaly_of_fault f);
      res_anomaly
    | exception Compile.Bail _ -> res_bail
    | exception Compile.Defer -> res_defer
    | exception Arena.Out_of_arena _ -> res_bail
    | exception Interp.Eval.Div_by_zero -> res_bail
    | exception Interp.Eval.Undefined_local _ -> res_bail
    | exception Interp.Eval.Undefined_param _ -> res_bail
  in
  t.stats.nodes_walked <- t.stats.nodes_walked + cur.Compile.walked;
  res

let set_fault_hook t hook = t.fault_hook <- hook

let set_deadline t = function
  | None -> t.deadline <- max_int
  | Some budget ->
    if budget < 1 then invalid_arg "Checker.set_deadline: budget must be >= 1";
    t.deadline <- budget

let deadline t = if t.deadline = max_int then None else Some t.deadline
let deadline_overruns t = t.deadline_overruns

let walk t ~sync ~handler ~params =
  (* The fault seam fires before either engine touches a node, so an
     injected exception or delay is observed identically by the compiled
     and interpreted walks (same anomaly, same stats) — a requirement of
     the differential fuzzing oracle. *)
  (match t.fault_hook with None -> () | Some f -> f ());
  match t.config.engine with
  | Compiled -> walk_compiled t ~sync ~handler ~params
  | Interpreted -> walk_interpreted t ~sync ~handler ~params

let record_anomaly t a = t.anomalies_rev <- a :: t.anomalies_rev

let verdict t (a : anomaly) : Vmm.Machine.verdict =
  let msg = Format.asprintf "%a" pp_anomaly a in
  match a.strategy with
  | Internal_error -> (
    (* Policy-driven, independent of the working mode: a checker defect
       says nothing about the guest, so the mode's halt/warn split does
       not apply. *)
    match t.config.on_internal_error with
    | Fail_closed -> Vmm.Machine.Halt msg
    | Fail_open_warn -> Vmm.Machine.Warn msg)
  | _ -> (
    match t.config.mode with
    | Protection -> Vmm.Machine.Halt msg
    | Enhancement -> (
      match a.strategy with
      | Parameter_check -> Vmm.Machine.Halt msg
      | Indirect_jump_check | Conditional_jump_check | Internal_error ->
        Vmm.Machine.Warn msg))

let taken_anomaly t =
  match t.w_anomaly with Some a -> a | None -> assert false

(* An option field is reset only when set: storing even [None] into a
   pointer field goes through the write barrier, and they are set only on
   rare paths. *)
let before t (request : Vmm.Machine.request) : Vmm.Machine.verdict =
  t.stats.interactions <- t.stats.interactions + 1;
  if Option.is_some t.pending then t.pending <- None;
  t.staged <- false;
  t.dirty <- false;
  if Option.is_some t.inline_halt then t.inline_halt <- None;
  if Option.is_some t.inline_warn then t.inline_warn <- None;
  (* [clear], not [reset]: [reset] reallocates the bucket array on every
     interaction. *)
  Hashtbl.clear t.sync_values;
  let r = walk t ~sync:false ~handler:request.handler ~params:request.params in
  if r = res_ok then begin
    t.stats.walks_ok <- t.stats.walks_ok + 1;
    t.staged <- true;
    t.staged_ctx <- t.w_ctx;
    Vmm.Machine.Allow
  end
  else if r = res_defer then begin
    t.stats.deferred <- t.stats.deferred + 1;
    t.pending <- Some { p_handler = request.handler; p_params = request.params };
    Vmm.Machine.Allow
  end
  else if r = res_bail then begin
    t.stats.bails <- t.stats.bails + 1;
    t.dirty <- true;
    Vmm.Machine.Allow
  end
  else begin
    let a = taken_anomaly t in
    record_anomaly t a;
    t.dirty <- true;
    verdict t a
  end

let after t (_request : Vmm.Machine.request) (outcome : Interp.Event.outcome) :
    Vmm.Machine.verdict =
  match outcome with
  | Interp.Event.Trapped _ -> (
    resync t;
    t.staged <- false;
    t.pending <- None;
    match t.inline_halt with
    | Some a -> verdict t a
    | None -> Vmm.Machine.Allow)
  | Interp.Event.Done _ -> (
    match t.pending with
    | Some p ->
      t.pending <- None;
      let r = walk t ~sync:true ~handler:p.p_handler ~params:p.p_params in
      if r = res_ok then begin
        Arena.copy_spans ~spans:t.spans ~src:t.work ~dst:t.shadow;
        t.ctx <- t.w_ctx;
        t.stats.walks_ok <- t.stats.walks_ok + 1;
        Vmm.Machine.Allow
      end
      else if r = res_anomaly then begin
        let a = taken_anomaly t in
        record_anomaly t { a with pre_execution = false };
        resync t;
        verdict t a
      end
      else begin
        t.stats.bails <- t.stats.bails + 1;
        resync t;
        Vmm.Machine.Allow
      end
    | None ->
      if t.staged then begin
        (* The one shadow copy of a committed interaction: nothing walks
           between [before] and here, so [work] still holds the walk. *)
        Arena.copy_spans ~spans:t.spans ~src:t.work ~dst:t.shadow;
        t.ctx <- t.staged_ctx;
        t.staged <- false;
        Vmm.Machine.Allow
      end
      else begin
        if t.dirty then resync t;
        match t.inline_warn with
        | Some a -> verdict t a
        | None -> Vmm.Machine.Allow
      end)

(* Inline enforcement of the indirect jump check: consulted by the
   interpreter at the actual call site, with the just-computed target. *)
let icall_guard t (bref : Program.bref) target =
  if not (enabled t Indirect_jump_check) then true
  else
    match Es_cfg.node t.spec bref with
    | Some n when not (List.mem target n.itargets) ->
      let a =
        {
          strategy = Indirect_jump_check;
          at = Some bref;
          detail =
            Printf.sprintf "runtime indirect call to illegitimate target 0x%Lx"
              target;
          pre_execution = true;
        }
      in
      record_anomaly t a;
      (match t.config.mode with
      | Protection ->
        t.inline_halt <- Some a;
        false
      | Enhancement ->
        t.inline_warn <- Some a;
        true)
    | Some _ | None -> true

(* --- Containment ------------------------------------------------------ *)

(* No exception may escape the interposer into [Machine] dispatch.  The
   walk-control set is already folded into result codes by the engines;
   anything else reaching here — an injected fault, a checker defect, a
   corrupted internal structure — is an internal error: record a
   diagnostic anomaly, put the shadow back on a sound footing (the failed
   walk may have left staged/pending state inconsistent), and fail per
   policy: [Fail_closed] blocks the interaction, [Fail_open_warn] lets
   the device run with a recorded warning. *)
let contain t ~pre exn =
  t.internal_errors <- t.internal_errors + 1;
  let a =
    {
      strategy = Internal_error;
      at = None;
      detail = "checker internal error: " ^ Printexc.to_string exn;
      pre_execution = pre;
    }
  in
  record_anomaly t a;
  resync t;
  t.pending <- None;
  t.staged <- false;
  t.dirty <- false;
  verdict t a

let interposer t : Vmm.Machine.interposer =
  {
    before = (fun req -> try before t req with e -> contain t ~pre:true e);
    after =
      (fun req outcome -> try after t req outcome with e -> contain t ~pre:false e);
  }

let internal_errors t = t.internal_errors

(* --- Bounded self-healing --------------------------------------------- *)

type heal_result = Heal_clean | Heal_resynced of int | Heal_exhausted of int

let heals t = t.heals

(* Resyncs [heal] may perform per checker lifetime. *)
let heal_budget = 8

let heal t =
  match shadow_matches_device t with
  | [] -> Heal_clean
  | divergent ->
    let n = List.length divergent in
    if t.heals >= heal_budget then Heal_exhausted n
    else begin
      t.heals <- t.heals + 1;
      resync t;
      Heal_resynced n
    end

(* A single pre-execution walk with no verdict bookkeeping and no shadow
   commit: the walk-throughput micro-benchmark's unit of work. *)
let bench_walk t ~handler ~params =
  ignore (walk t ~sync:false ~handler ~params : int)

let shadow_snapshot t = Arena.snapshot t.shadow

let attach ?config ?compiled machine ~spec device =
  let interp = Vmm.Machine.interp_of machine device in
  let t =
    create ?config ?compiled ~spec
      ~device_arena:(Interp.arena interp)
      ~guest:(Vmm.Guest_mem.access (Vmm.Machine.ram machine))
      ()
  in
  let (_ : unit -> unit) = Vmm.Machine.add_interposer machine device (interposer t) in
  let (_ : unit -> unit) =
    Interp.add_sync_points interp (Es_cfg.sync_points spec) ~on_sync:(record_sync t)
  in
  Interp.set_icall_guard interp (Some (icall_guard t));
  t
