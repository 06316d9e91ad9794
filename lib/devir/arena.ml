type t = { layout : Layout.t; mem : bytes }

exception Out_of_arena of { field : string; index : int }

let write_scalar mem off size v =
  for i = 0 to size - 1 do
    Bytes.set mem (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let read_scalar mem off size =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (Int64.logor (Int64.shift_left acc 8)
           (Int64.of_int (Char.code (Bytes.get mem (off + i)))))
  in
  go (size - 1) 0L

let init_fields t =
  List.iter
    (fun (f : Layout.field) ->
      let off = Layout.offset t.layout f.name in
      match f.kind with
      | Layout.Reg w ->
        write_scalar t.mem off (Width.bytes w) (Width.truncate w f.init)
      | Layout.Fn_ptr -> write_scalar t.mem off 8 f.init
      | Layout.Buf n -> Bytes.fill t.mem off n '\000')
    (Layout.fields t.layout)

let create layout =
  let t = { layout; mem = Bytes.make (Layout.size layout) '\000' } in
  init_fields t;
  t

let layout t = t.layout

let reset t =
  Bytes.fill t.mem 0 (Bytes.length t.mem) '\000';
  init_fields t

let get t name =
  let f = Layout.find t.layout name in
  let off = Layout.offset t.layout name in
  match f.kind with
  | Layout.Reg w -> read_scalar t.mem off (Width.bytes w)
  | Layout.Fn_ptr -> read_scalar t.mem off 8
  | Layout.Buf _ ->
    invalid_arg (Printf.sprintf "Arena.get: %s is a buffer" name)

let set t name v =
  let f = Layout.find t.layout name in
  let off = Layout.offset t.layout name in
  match f.kind with
  | Layout.Reg w -> write_scalar t.mem off (Width.bytes w) (Width.truncate w v)
  | Layout.Fn_ptr -> write_scalar t.mem off 8 v
  | Layout.Buf _ ->
    invalid_arg (Printf.sprintf "Arena.set: %s is a buffer" name)

let size t = Bytes.length t.mem

let get_byte_at t off = Char.code (Bytes.get t.mem off)
let set_byte_at t off v = Bytes.set t.mem off (Char.chr (v land 0xFF))

let read_u8 t off = Bytes.get_uint8 t.mem off
let read_u16 t off = Bytes.get_uint16_le t.mem off
let read_u32 t off = Int32.to_int (Bytes.get_int32_le t.mem off) land 0xFFFF_FFFF
let read_u64 t off = Bytes.get_int64_le t.mem off

let write_u8 t off v = Bytes.set_uint8 t.mem off (v land 0xFF)
let write_u16 t off v = Bytes.set_uint16_le t.mem off (v land 0xFFFF)
let write_u32 t off v = Bytes.set_int32_le t.mem off (Int32.of_int v)
let write_u64 t off v = Bytes.set_int64_le t.mem off v

let buf_abs t name idx =
  let off = Layout.offset t.layout name + idx in
  if off < 0 || off >= Bytes.length t.mem then
    raise (Out_of_arena { field = name; index = idx });
  off

let get_buf_byte t name idx = Char.code (Bytes.get t.mem (buf_abs t name idx))

let set_buf_byte t name idx v =
  Bytes.set t.mem (buf_abs t name idx) (Char.chr (v land 0xFF))

let blit_to_buf t name off src =
  for i = 0 to Bytes.length src - 1 do
    set_buf_byte t name (off + i) (Char.code (Bytes.get src i))
  done

let read_buf t name off len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (get_buf_byte t name (off + i)))
  done;
  out

let snapshot t = Bytes.copy t.mem

let save_into t out =
  if Bytes.length out <> Bytes.length t.mem then
    invalid_arg "Arena.save_into: size mismatch";
  Bytes.blit t.mem 0 out 0 (Bytes.length t.mem)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Span copies run on the checker's per-interaction hot path and move a
   few dozen bytes (38-102 per checker on the six devices): a word loop
   inline costs less than the call into a C blit.  The range is checked
   once, then the loop uses unchecked accesses.  A top-level recursion
   over the list keeps the copy allocation-free. *)
let copy_span src dst off len =
  if off < 0 || len < 0 || off > Bytes.length src - len || off > Bytes.length dst - len
  then invalid_arg "Arena.copy_spans: span outside the arena";
  let stop = off + len in
  let i = ref off in
  while !i <= stop - 8 do
    set64u dst !i (get64u src !i);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    Bytes.unsafe_set dst j (Bytes.unsafe_get src j)
  done

let rec copy_span_list src dst = function
  | [] -> ()
  | (off, len) :: rest ->
    copy_span src dst off len;
    copy_span_list src dst rest

let copy_spans ~spans ~src ~dst = copy_span_list src.mem dst.mem spans

let copy_into ~src ~dst =
  if Bytes.length src.mem <> Bytes.length dst.mem then
    invalid_arg "Arena.copy_into: size mismatch";
  Bytes.blit src.mem 0 dst.mem 0 (Bytes.length src.mem)

let restore t saved =
  if Bytes.length saved <> Bytes.length t.mem then
    invalid_arg "Arena.restore: size mismatch";
  Bytes.blit saved 0 t.mem 0 (Bytes.length saved)

let scalar_fields t =
  List.filter_map
    (fun (f : Layout.field) ->
      match f.kind with
      | Layout.Buf _ -> None
      | Layout.Reg _ | Layout.Fn_ptr -> Some (f.name, get t f.name))
    (Layout.fields t.layout)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-16s = %Ld (0x%Lx)@," name v v)
    (scalar_fields t);
  Format.fprintf ppf "@]"
