open Devir

type env = {
  work : Arena.t;
  locals : int64 array;
  ldef : bool array;
  params : int64 array;
  pdef : bool array;
  mutable record_overflow : Eval.overflow -> unit;
  mutable oob_read : Program.bref -> string -> int -> unit;
  mutable pnames : string array;
  mutable pslots : int array;
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

let reader = function
  | Width.W8 -> Arena.read_u8
  | Width.W16 -> Arena.read_u16
  | Width.W32 -> Arena.read_u32
  | Width.W64 -> Arena.read_u64

let writer = function
  | Width.W8 -> Arena.write_u8
  | Width.W16 -> Arena.write_u16
  | Width.W32 -> Arena.write_u32
  | Width.W64 -> Arena.write_u64

type buf = { name : string; base : int; size : int }

let buffer c ~at name =
  match Layout.find c.layout name with
  | exception Not_found -> unresolved ~at "unknown field %s" name
  | { Layout.kind = Layout.Buf size; _ } ->
    { name; base = Layout.offset c.layout name; size }
  | _ -> unresolved ~at "field %s is not a buffer" name

(* Subexpression evaluation order must match {!Eval.eval}: OCaml evaluates
   [binop ~record op w (eval a) (eval b)] right-to-left, so [b] runs
   first — overflow recording and exception ordering depend on it. *)
let rec expr c ~at (e : Expr.t) : env -> int64 =
  match e with
  | Expr.Const (v, w) ->
    let k = Width.truncate w v in
    fun _ -> k
  | Expr.Field n -> (
    match scalar c ~at n with
    | off, Width.W8 -> fun env -> Arena.read_u8 env.work off
    | off, Width.W16 -> fun env -> Arena.read_u16 env.work off
    | off, Width.W32 -> fun env -> Arena.read_u32 env.work off
    | off, Width.W64 -> fun env -> Arena.read_u64 env.work off)
  | Expr.Buf_byte (b, idx) ->
    let { name; base; size } = buffer c ~at b in
    let fidx = expr c ~at idx in
    let asize = c.asize in
    fun env ->
      let i = Int64.to_int (fidx env) in
      if i < 0 || i >= size then env.oob_read at name i;
      let abs = base + i in
      if abs < 0 || abs >= asize then
        raise (Arena.Out_of_arena { field = name; index = i });
      Int64.of_int (Arena.get_byte_at env.work abs)
  | Expr.Buf_len b ->
    let k = Int64.of_int (buffer c ~at b).size in
    fun _ -> k
  | Expr.Param n ->
    let s = param_slot c n in
    fun env ->
      if env.pdef.(s) then env.params.(s) else raise (Eval.Undefined_param n)
  | Expr.Local n ->
    let s = local_slot c n in
    fun env ->
      if env.ldef.(s) then env.locals.(s) else raise (Eval.Undefined_local n)
  | Expr.Binop (op, w, a, b) ->
    let fa = expr c ~at a and fb = expr c ~at b in
    fun env ->
      let vb = fb env in
      let va = fa env in
      Eval.binop ~record:env.record_overflow op w va vb
  | Expr.Cmp (op, a, b) ->
    let fa = expr c ~at a and fb = expr c ~at b in
    fun env ->
      let vb = fb env in
      let va = fa env in
      Eval.cmp op va vb
  | Expr.Not a ->
    let fa = expr c ~at a in
    fun env -> if Eval.truthy (fa env) then 0L else 1L

let make_env c ~work =
  let nl = max c.locals.next 1 and np = max c.params.next 1 in
  {
    work;
    locals = Array.make nl 0L;
    ldef = Array.make nl false;
    params = Array.make np 0L;
    pdef = Array.make np false;
    record_overflow = ignore;
    oob_read = (fun _ _ _ -> ());
    pnames = Array.make 4 "";
    pslots = Array.make 4 (-1);
  }

let reset env =
  Array.fill env.ldef 0 (Array.length env.ldef) false;
  Array.fill env.pdef 0 (Array.length env.pdef) false

(* Requests name their parameters with the same string constants every
   time, so a name physically equal to the one last seen at its position
   reuses that slot without hashing. *)
let param_at c env k name =
  if k < Array.length env.pnames && env.pnames.(k) == name then env.pslots.(k)
  else begin
    let s =
      match Hashtbl.find c.params.tbl name with s -> s | exception Not_found -> -1
    in
    if k >= Array.length env.pnames then begin
      let grow a fill = Array.append a (Array.make (k + 1) fill) in
      env.pnames <- grow env.pnames "";
      env.pslots <- grow env.pslots (-1)
    end;
    env.pnames.(k) <- name;
    env.pslots.(k) <- s;
    s
  end

let rec bind_from c env k = function
  | [] -> ()
  | (name, v) :: rest ->
    let s = param_at c env k name in
    if s >= 0 && not env.pdef.(s) then begin
      env.params.(s) <- v;
      env.pdef.(s) <- true
    end;
    bind_from c env (k + 1) rest

let bind_params c env params = bind_from c env 0 params

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

let case_index vals v =
  let lo = ref 0 and hi = ref (Array.length vals - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Int64.compare vals.(mid) v in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found
