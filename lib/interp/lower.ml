open Devir

(* A few names looked up recently, found again by physical identity
   before any hashing: first the slot found last, then the others. *)
type 'a memo = {
  names : string array;
  vals : 'a array;
  mutable filled : int;
  mutable next : int;
  mutable last : int;
}

(* A request's parameter list as one handler receives it: the name at
   each position and its slot, [-1] for a name no lowered code reads or
   one an earlier position already binds. *)
type plan = { pnames : string array; pslots : int array }

type env = {
  work : Arena.t;
  locals : int64 array;
  ldef : int array;
  params : int64 array;
  pdef : int array;
  mutable epoch : int;
  mutable record_overflow : Eval.overflow -> unit;
  mutable oob_read : Program.bref -> string -> int -> unit;
  plans : plan memo;
  mutable scrut : int;
  scrut_wide : Bytes.t;
}

type slots = { tbl : (string, int) Hashtbl.t; mutable next : int }

type ctx = { layout : Layout.t; asize : int; locals : slots; params : slots }

let create layout =
  {
    layout;
    asize = Layout.size layout;
    locals = { tbl = Hashtbl.create 16; next = 0 };
    params = { tbl = Hashtbl.create 8; next = 0 };
  }

let arena_size c = c.asize

let slot_of s name =
  match Hashtbl.find_opt s.tbl name with
  | Some i -> i
  | None ->
    let i = s.next in
    s.next <- i + 1;
    Hashtbl.add s.tbl name i;
    i

let local_slot c name = slot_of c.locals name
let param_slot c name = slot_of c.params name
let find_local c name = Hashtbl.find_opt c.locals.tbl name
let n_locals c = c.locals.next

let unresolved ~at fmt =
  Printf.ksprintf
    (fun msg -> invalid_arg (Program.bref_to_string at ^ ": " ^ msg))
    fmt

let scalar c ~at name =
  match Layout.find c.layout name with
  | exception Not_found -> unresolved ~at "unknown field %s" name
  | { Layout.kind = Layout.Buf _; _ } ->
    unresolved ~at "field %s is a buffer" name
  | { Layout.kind = Layout.Reg w; _ } -> (Layout.offset c.layout name, w)
  | { Layout.kind = Layout.Fn_ptr; _ } -> (Layout.offset c.layout name, Width.W64)

let int_writer = function
  | Width.W8 -> Arena.write_u8
  | Width.W16 -> Arena.write_u16
  | Width.W32 -> Arena.write_u32
  | Width.W64 -> invalid_arg "Lower.int_writer: W64"

type buf = { name : string; base : int; size : int }

let buffer c ~at name =
  match Layout.find c.layout name with
  | exception Not_found -> unresolved ~at "unknown field %s" name
  | { Layout.kind = Layout.Buf size; _ } ->
    { name; base = Layout.offset c.layout name; size }
  | _ -> unresolved ~at "field %s is not a buffer" name

(* --- Typed lowering ---------------------------------------------------- *)

(* An expression lowers by the range of its values.  Without flambda an
   [int64] that crosses a closure boundary is boxed, so only values that
   can need all 64 bits travel as [int64]: parameters, locals, W64 fields
   and W64 arithmetic.  Everything else is narrow: a W8-W32 field or
   binop, a buffer byte or length, in [0, 2^32) and unboxed.  Comparisons
   and [Not] are narrow values (0 or 1) kept as [bool] closures, which
   branch conditions take as they are. *)
type lowered =
  | K of int64  (** A constant, already truncated to its width. *)
  | N of (env -> int)  (** A value in [0, 2^32). *)
  | B of (env -> bool)  (** A 0/1 value. *)
  | W of (env -> int64)  (** Any 64-bit value. *)

let is_wide = function
  | W _ -> true
  | K k -> k < 0L || k > 0xFFFF_FFFFL
  | N _ | B _ -> false

(* [Int64.to_int] of the value: exact for narrow values; a wide value
   loses bit 63, as everywhere an [int] index or length is taken. *)
let as_int = function
  | K k ->
    let k = Int64.to_int k in
    fun _ -> k
  | N f -> f
  | B f -> fun env -> if f env then 1 else 0
  | W f -> fun env -> Int64.to_int (f env)

let as_int64 = function
  | K k -> fun _ -> k
  | N f -> fun env -> Int64.of_int (f env)
  | B f -> fun env -> if f env then 1L else 0L
  | W f -> f

let as_bool = function
  | K k ->
    let b = k <> 0L in
    fun _ -> b
  | N f -> fun env -> f env <> 0
  | B f -> f
  | W f -> fun env -> f env <> 0L

(* A narrow binop at width [w] (below 64 bits), specialised per operator.
   Operands are truncated to [w] as {!Eval.binop} does; a wide operand
   keeps its low bits through [Int64.to_int].  Wrap detection and the
   overflow record are {!Eval.binop}'s.  [b] is evaluated before [a]: see
   {!lower}. *)
let narrow_binop op w (fa : env -> int) (fb : env -> int) : env -> int =
  let m = Int64.to_int (Width.mask w) and bits = Width.bits w in
  let record env a b r =
    env.record_overflow
      {
        Eval.ov_op = op;
        ov_width = w;
        ov_lhs = Int64.of_int a;
        ov_rhs = Int64.of_int b;
        ov_result = Int64.of_int r;
      }
  in
  match op with
  | Expr.Add ->
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      let x = a + b in
      let r = x land m in
      if x > m then record env a b r;
      r
  | Expr.Sub ->
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      let r = (a - b) land m in
      if b > a then record env a b r;
      r
  | Expr.Mul ->
    (* A W32 product can exceed the 63-bit [int]; the exact product of
       two 32-bit operands fits an unsigned 64-bit local. *)
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      let x = Int64.mul (Int64.of_int a) (Int64.of_int b) in
      let r = Int64.to_int x land m in
      if Int64.shift_right_logical x bits <> 0L then record env a b r;
      r
  | Expr.Div ->
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      if b = 0 then raise Eval.Div_by_zero else a / b
  | Expr.Rem ->
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      if b = 0 then raise Eval.Div_by_zero else a mod b
  | Expr.And -> fun env -> let b = fb env in fa env land b land m
  | Expr.Or -> fun env -> let b = fb env in (fa env lor b) land m
  | Expr.Xor -> fun env -> let b = fb env in (fa env lxor b) land m
  | Expr.Shl ->
    (* Shifts take the low 6 bits of the count; bits shifted past the
       width are an overflow, bits shifted past 64 are simply gone. *)
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      let x = Int64.shift_left (Int64.of_int a) (b land 63) in
      let r = Int64.to_int x land m in
      if Int64.shift_right_logical x bits <> 0L then record env a b r;
      r
  | Expr.Shr ->
    fun env ->
      let b = fb env land m in
      let a = fa env land m in
      a lsr (b land 63)

(* Narrow operands lie in [0, 2^32), where signed and unsigned order
   agree with [int] order. *)
let narrow_cmp op (fa : env -> int) (fb : env -> int) : env -> bool =
  match op with
  | Expr.Eq -> fun env -> let b = fb env in fa env = b
  | Expr.Ne -> fun env -> let b = fb env in fa env <> b
  | Expr.Ltu | Expr.Lts -> fun env -> let b = fb env in fa env < b
  | Expr.Leu | Expr.Les -> fun env -> let b = fb env in fa env <= b
  | Expr.Gtu | Expr.Gts -> fun env -> let b = fb env in fa env > b
  | Expr.Geu | Expr.Ges -> fun env -> let b = fb env in fa env >= b

(* Unsigned order is signed order with the sign bit flipped. *)
let wide_cmp op (fa : env -> int64) (fb : env -> int64) : env -> bool =
  let flip = Int64.min_int in
  match op with
  | Expr.Eq -> fun env -> let b = fb env in (fa env : int64) = b
  | Expr.Ne -> fun env -> let b = fb env in (fa env : int64) <> b
  | Expr.Ltu -> fun env -> let b = fb env in Int64.sub (fa env) flip < Int64.sub b flip
  | Expr.Leu -> fun env -> let b = fb env in Int64.sub (fa env) flip <= Int64.sub b flip
  | Expr.Gtu -> fun env -> let b = fb env in Int64.sub (fa env) flip > Int64.sub b flip
  | Expr.Geu -> fun env -> let b = fb env in Int64.sub (fa env) flip >= Int64.sub b flip
  | Expr.Lts -> fun env -> let b = fb env in (fa env : int64) < b
  | Expr.Les -> fun env -> let b = fb env in (fa env : int64) <= b
  | Expr.Gts -> fun env -> let b = fb env in (fa env : int64) > b
  | Expr.Ges -> fun env -> let b = fb env in (fa env : int64) >= b

(* Subexpression evaluation order must match {!Eval.eval}: OCaml evaluates
   [binop ~record op w (eval a) (eval b)] right-to-left, so [b] runs
   first — overflow recording and exception ordering depend on it. *)
let rec lower c ~at (e : Expr.t) : lowered =
  match e with
  | Expr.Const (v, w) -> K (Width.truncate w v)
  | Expr.Field n -> (
    match scalar c ~at n with
    | off, Width.W8 -> N (fun env -> Arena.read_u8 env.work off)
    | off, Width.W16 -> N (fun env -> Arena.read_u16 env.work off)
    | off, Width.W32 -> N (fun env -> Arena.read_u32 env.work off)
    | off, Width.W64 -> W (fun env -> Arena.read_u64 env.work off))
  | Expr.Buf_byte (b, idx) ->
    let { name; base; size } = buffer c ~at b in
    let fidx = as_int (lower c ~at idx) in
    let asize = c.asize in
    N
      (fun env ->
        let i = fidx env in
        if i < 0 || i >= size then env.oob_read at name i;
        let abs = base + i in
        if abs < 0 || abs >= asize then
          raise (Arena.Out_of_arena { field = name; index = i });
        Arena.get_byte_at env.work abs)
  | Expr.Buf_len b -> K (Int64.of_int (buffer c ~at b).size)
  | Expr.Param n ->
    let s = param_slot c n in
    W
      (fun env ->
        if env.pdef.(s) = env.epoch then env.params.(s)
        else raise (Eval.Undefined_param n))
  | Expr.Local n ->
    let s = local_slot c n in
    W
      (fun env ->
        if env.ldef.(s) = env.epoch then env.locals.(s)
        else raise (Eval.Undefined_local n))
  | Expr.Binop (op, Width.W64, a, b) ->
    let fa = as_int64 (lower c ~at a) and fb = as_int64 (lower c ~at b) in
    W
      (fun env ->
        let vb = fb env in
        let va = fa env in
        Eval.binop ~record:env.record_overflow op Width.W64 va vb)
  | Expr.Binop (op, w, a, b) ->
    let la = lower c ~at a and lb = lower c ~at b in
    N (narrow_binop op w (as_int la) (as_int lb))
  | Expr.Cmp (op, a, b) ->
    (* A wide operand compares as [int64]: through [int] its bit 63 would
       alias, and [Param 0x8000_0000_0000_0005 == 5] would hold. *)
    let la = lower c ~at a and lb = lower c ~at b in
    if is_wide la || is_wide lb then B (wide_cmp op (as_int64 la) (as_int64 lb))
    else B (narrow_cmp op (as_int la) (as_int lb))
  | Expr.Not a -> (
    match lower c ~at a with
    | K k ->
      let r = k = 0L in
      B (fun _ -> r)
    | N f -> B (fun env -> f env = 0)
    | B f -> B (fun env -> not (f env))
    | W f -> B (fun env -> f env = 0L))

let int_expr c ~at e = as_int (lower c ~at e)
let int64_expr c ~at e = as_int64 (lower c ~at e)
let bool_expr c ~at e = as_bool (lower c ~at e)

(* --- Handler names ----------------------------------------------------- *)

(* A name no request can be physically equal to. *)
let no_name = Bytes.unsafe_to_string (Bytes.create 0)

let memo n dummy =
  { names = Array.make n no_name; vals = Array.make n dummy; filled = 0; next = 0; last = 0 }

let rec memo_slot (m : _ memo) name i =
  if i = m.filled then -1 else if m.names.(i) == name then i else memo_slot m name (i + 1)

(* The slot that holds [name], or [-1]. *)
let memo_index (m : _ memo) name =
  if m.names.(m.last) == name then m.last
  else begin
    let i = memo_slot m name 0 in
    if i >= 0 then m.last <- i;
    i
  end

let memo_add (m : _ memo) name v =
  let i = m.next in
  m.names.(i) <- name;
  m.vals.(i) <- v;
  m.last <- i;
  m.next <- (if i + 1 = Array.length m.names then 0 else i + 1);
  if m.filled < Array.length m.names then m.filled <- m.filled + 1

let memo_find (m : _ memo) tbl name =
  match memo_index m name with
  | -1 ->
    let v = Hashtbl.find tbl name in
    memo_add m name v;
    v
  | i -> m.vals.(i)

(* --- Environments -------------------------------------------------------- *)

let no_plan = { pnames = [||]; pslots = [||] }

let make_env c ~work =
  let nl = max c.locals.next 1 and np = max c.params.next 1 in
  {
    work;
    locals = Array.make nl 0L;
    ldef = Array.make nl 0;
    params = Array.make np 0L;
    pdef = Array.make np 0;
    epoch = 1;
    record_overflow = ignore;
    oob_read = (fun _ _ _ -> ());
    plans = memo 4 no_plan;
    scrut = 0;
    scrut_wide = Bytes.make 8 '\000';
  }

(* A slot is defined in this run when its stamp is the run's epoch, so
   forgetting every slot is one increment. *)
let reset (env : env) = env.epoch <- env.epoch + 1
let defined (env : env) s = env.ldef.(s) = env.epoch

let define (env : env) s v =
  env.locals.(s) <- v;
  env.ldef.(s) <- env.epoch

let make_plan c params =
  let names = Array.of_list (List.map fst params) in
  let slots =
    Array.mapi
      (fun k name ->
        let first = ref true in
        for j = 0 to k - 1 do
          if String.equal names.(j) name then first := false
        done;
        match Hashtbl.find_opt c.params.tbl name with
        | Some s when !first -> s
        | _ -> -1)
      names
  in
  { pnames = names; pslots = slots }

(* A list that leaves its handler's plan binds the rest name by name; the
   stamps keep the first binding of a name, as the plan does. *)
let rec bind_by_name c (env : env) = function
  | [] -> ()
  | (name, v) :: rest ->
    (match Hashtbl.find c.params.tbl name with
    | s ->
      if env.pdef.(s) <> env.epoch then begin
        env.params.(s) <- v;
        env.pdef.(s) <- env.epoch
      end
    | exception Not_found -> ());
    bind_by_name c env rest

let rec bind_plan c (env : env) p k = function
  | [] -> ()
  | (name, v) :: rest as l ->
    if k < Array.length p.pnames && p.pnames.(k) == name then begin
      let s = p.pslots.(k) in
      if s >= 0 then begin
        env.params.(s) <- v;
        env.pdef.(s) <- env.epoch
      end;
      bind_plan c env p (k + 1) rest
    end
    else bind_by_name c env l

(* Requests name their handler and parameters with the same string
   constants every time: the handler's plan, made from its first request,
   binds each later one by physical identity, without hashing. *)
let bind_params c (env : env) ~handler params =
  let m = env.plans in
  let p =
    match memo_index m handler with
    | -1 ->
      let p = make_plan c params in
      memo_add m handler p;
      p
    | i -> m.vals.(i)
  in
  bind_plan c env p 0 params

(* --- Switches ---------------------------------------------------------- *)

let sorted_cases cases =
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun (v, _) ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      cases
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int64.compare a b) uniq in
  (Array.of_list (List.map fst sorted), Array.of_list (List.map snd sorted))

(* Binary search over the sorted case values.  The narrow twin takes its
   key as an [int] and widens it inside, so neither boxes. *)
let rec case_index vals (v : int64) lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = vals.(mid) in
    if x = v then mid
    else if x < v then case_index vals v (mid + 1) hi
    else case_index vals v lo (mid - 1)

let rec case_index_int vals v lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = vals.(mid) and v64 = Int64.of_int v in
    if x = v64 then mid
    else if x < v64 then case_index_int vals v (mid + 1) hi
    else case_index_int vals v lo (mid - 1)

type switch = { index : env -> int; value : env -> int64 }

let switch c ~at e vals =
  let last = Array.length vals - 1 in
  match lower c ~at e with
  | K k ->
    let i = case_index vals k 0 last in
    { index = (fun _ -> i); value = (fun _ -> k) }
  | W f ->
    {
      index =
        (fun env ->
          let v = f env in
          Bytes.set_int64_ne env.scrut_wide 0 v;
          case_index vals v 0 last);
      value = (fun env -> Bytes.get_int64_ne env.scrut_wide 0);
    }
  | (N _ | B _) as l ->
    let f = as_int l in
    {
      index =
        (fun env ->
          let v = f env in
          env.scrut <- v;
          case_index_int vals v 0 last);
      value = (fun env -> Int64.of_int env.scrut);
    }
