(* Dirty-page tracking for incremental checkpoints.  [dirty] holds one
   byte per page: nonzero means the page may differ from its copy in the
   checkpoint image.  A page whose byte is zero equals its saved copy, so
   [checkpoint] and [rollback] only move the marked pages.  Every page
   starts marked, which also covers the image not existing yet. *)
let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  mem : bytes;
  dirty : bytes;
  mutable image : bytes option;  (** Allocated at the first [checkpoint]. *)
  mutable write_hook : (int64 -> int -> unit) option;
  mutable read_fault : (int64 -> int -> int) option;
}

let create size =
  {
    mem = Bytes.make size '\000';
    dirty = Bytes.make ((size + page_size - 1) lsr page_bits) '\001';
    image = None;
    write_hook = None;
    read_fault = None;
  }

let set_write_hook t hook = t.write_hook <- hook

let set_read_fault t f = t.read_fault <- f

let size t = Bytes.length t.mem

let read_byte t addr =
  let i = Int64.to_int addr in
  let b = if i >= 0 && i < Bytes.length t.mem then Char.code (Bytes.get t.mem i) else 0 in
  match t.read_fault with None -> b | Some f -> f addr b land 0xFF

(* Every guest and DMA byte comes through here, so the stores skip checks
   the range test already makes: [i] is inside [mem], so [i lsr page_bits]
   is inside [dirty] (one byte per started page), and [v land 0xFF] is a
   byte. *)
let write_byte t addr v =
  let i = Int64.to_int addr in
  if i >= 0 && i < Bytes.length t.mem then begin
    Bytes.unsafe_set t.mem i (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set t.dirty (i lsr page_bits) '\001';
    match t.write_hook with None -> () | Some f -> f addr (v land 0xFF)
  end

let read t addr w =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (Int64.logor (Int64.shift_left acc 8)
           (Int64.of_int (read_byte t (Int64.add addr (Int64.of_int i)))))
  in
  go (Devir.Width.bytes w - 1) 0L

let write t addr w v =
  for i = 0 to Devir.Width.bytes w - 1 do
    write_byte t
      (Int64.add addr (Int64.of_int i))
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
  done

let blit_in t addr src =
  for i = 0 to Bytes.length src - 1 do
    write_byte t (Int64.add addr (Int64.of_int i)) (Char.code (Bytes.get src i))
  done

let blit_out t addr len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (read_byte t (Int64.add addr (Int64.of_int i))))
  done;
  out

let fill t addr len byte =
  for i = 0 to len - 1 do
    write_byte t (Int64.add addr (Int64.of_int i)) byte
  done

(* Host-side reset: does not fire the write hook. *)
let clear t =
  Bytes.fill t.mem 0 (Bytes.length t.mem) '\000';
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\001'

let snapshot t = Bytes.copy t.mem

(* Copy every dirty page from [src] to [dst], then mark it clean: after
   this the two agree on every page. *)
let copy_dirty t ~src ~dst =
  let size = Bytes.length t.mem in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.get t.dirty p <> '\000' then begin
      let off = p lsl page_bits in
      Bytes.blit src off dst off (min page_size (size - off));
      Bytes.set t.dirty p '\000'
    end
  done

let checkpoint t =
  let image =
    match t.image with
    | Some image -> image
    | None ->
      let image = Bytes.create (Bytes.length t.mem) in
      t.image <- Some image;
      image
  in
  copy_dirty t ~src:t.mem ~dst:image

let rollback t =
  match t.image with
  | Some image -> copy_dirty t ~src:image ~dst:t.mem
  | None -> invalid_arg "Guest_mem.rollback: no checkpoint"

let access t =
  { Interp.read_byte = read_byte t; write_byte = write_byte t }
