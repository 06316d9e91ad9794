(* Paged RAM.  [pages.(p)] holds bytes [p * page_size ..] of RAM: either
   a page of its own or [zero_page], which every untouched page shares.
   Nothing ever writes [zero_page]: a store into a slot that still holds
   it first gives the slot its own page ([own_page]; [writable] for the
   bulk paths).  A RAM whose size is not a page multiple still has whole pages;
   the range tests keep every access below [size], so the tail of the
   last page stays zero.

   Dirty-page tracking for incremental checkpoints.  [dirty] holds one
   byte per page: nonzero means the page may differ from its copy in the
   checkpoint image.  A page whose byte is zero equals its saved copy, so
   [checkpoint] and [rollback] only move the marked pages.  Every page
   starts marked, which also covers the image not existing yet. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

type t = {
  size : int;
  pages : bytes array;
  dirty : bytes;
  mutable image : bytes array option;
      (** Allocated at the first [checkpoint]; pages as in [pages]. *)
  mutable write_hook : (int64 -> int -> unit) option;
  mutable read_fault : (int64 -> int -> int) option;
}

let create size =
  if size < 0 then invalid_arg "Guest_mem.create: negative size";
  let n = (size + page_size - 1) lsr page_bits in
  {
    size;
    pages = Array.make n zero_page;
    dirty = Bytes.make n '\001';
    image = None;
    write_hook = None;
    read_fault = None;
  }

let set_write_hook t hook = t.write_hook <- hook

let set_read_fault t f = t.read_fault <- f

let size t = t.size

(* Page [p]'s own page, allocated at its first write. *)
let own_page t p =
  let page = Bytes.make page_size '\000' in
  t.pages.(p) <- page;
  page

let writable t p =
  let page = Array.unsafe_get t.pages p in
  if page == zero_page then own_page t p else page

(* Range tests look at the [int64] address itself: [Int64.to_int] drops
   bit 63, so testing the converted [int] would let an address with that
   bit set alias the RAM byte below it.  Below the test [i] is inside
   RAM, so [i lsr page_bits] is inside [pages] and [dirty]. *)
let read_byte t addr =
  let b =
    if addr >= 0L && addr < Int64.of_int t.size then
      let i = Int64.to_int addr in
      Char.code (Bytes.unsafe_get (Array.unsafe_get t.pages (i lsr page_bits)) (i land page_mask))
    else 0
  in
  match t.read_fault with None -> b | Some f -> f addr b land 0xFF

(* Every device DMA byte comes through here: past the range test the
   stores skip their checks, and only a page's first write leaves the
   straight path (it gives the page slot its own page, then writes). *)
let rec write_byte t addr v =
  if addr >= 0L && addr < Int64.of_int t.size then begin
    let i = Int64.to_int addr in
    let p = i lsr page_bits in
    let page = Array.unsafe_get t.pages p in
    if page != zero_page then begin
      Bytes.unsafe_set page (i land page_mask) (Char.unsafe_chr (v land 0xFF));
      Bytes.unsafe_set t.dirty p '\001';
      match t.write_hook with None -> () | Some f -> f addr (v land 0xFF)
    end
    else begin
      ignore (own_page t p : bytes);
      write_byte t addr v
    end
  end

(* The bulk fast path.  A range of [len] bytes at [addr] moves with one
   [Bytes] operation per page it touches when it lies wholly inside RAM,
   [len] is positive and nothing interposes on its bytes; the result is
   its RAM offset, or -1 when the per-byte path must run instead.  That
   path is the reference: a write hook sees every byte written through
   it, in address order, a read fault every byte read, and a range that
   leaves RAM (or wraps) keeps the bytes that fall inside it. *)
let ram_offset t addr len =
  if len > 0 && addr >= 0L && addr <= Int64.of_int (t.size - len) then Int64.to_int addr
  else -1

let fast_read t addr len =
  match t.read_fault with None -> ram_offset t addr len | Some _ -> -1

let fast_write t addr len =
  match t.write_hook with None -> ram_offset t addr len | Some _ -> -1

(* A range of [len > 0] bytes at RAM offset [off] covers pages
   [first_page off] to [last_page off len]; of page [p] it covers the
   bytes from [piece_lo off p] up to [piece_hi off len p], as RAM
   offsets. *)
let first_page off = off lsr page_bits
let last_page off len = (off + len - 1) lsr page_bits
let piece_lo off p = if p lsl page_bits > off then p lsl page_bits else off

let piece_hi off len p =
  if (p + 1) lsl page_bits < off + len then (p + 1) lsl page_bits else off + len

(* Mark dirty every page that [len > 0] bytes at RAM offset [off] touch. *)
let mark_dirty t off len =
  let first = first_page off in
  Bytes.fill t.dirty first (last_page off len - first + 1) '\001'

(* A scalar moves with one little-endian load or store on its page when
   it lies inside one page; one that straddles a page boundary takes the
   per-byte path. *)
let in_one_page off n = off >= 0 && (off land page_mask) + n <= page_size

let read t addr w =
  let n = Devir.Width.bytes w in
  let off = fast_read t addr n in
  if in_one_page off n then
    let page = t.pages.(off lsr page_bits) and at = off land page_mask in
    match w with
    | Devir.Width.W8 -> Int64.of_int (Bytes.get_uint8 page at)
    | W16 -> Int64.of_int (Bytes.get_uint16_le page at)
    | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le page at)) 0xFFFF_FFFFL
    | W64 -> Bytes.get_int64_le page at
  else
    let rec go i acc =
      if i < 0 then acc
      else
        go (i - 1)
          (Int64.logor (Int64.shift_left acc 8)
             (Int64.of_int (read_byte t (Int64.add addr (Int64.of_int i)))))
    in
    go (n - 1) 0L

let write t addr w v =
  let n = Devir.Width.bytes w in
  let off = fast_write t addr n in
  if in_one_page off n then begin
    let page = writable t (off lsr page_bits) and at = off land page_mask in
    (match w with
    | Devir.Width.W8 -> Bytes.set_uint8 page at (Int64.to_int v)
    | W16 -> Bytes.set_uint16_le page at (Int64.to_int v)
    | W32 -> Bytes.set_int32_le page at (Int64.to_int32 v)
    | W64 -> Bytes.set_int64_le page at v);
    mark_dirty t off n
  end
  else
    for i = 0 to n - 1 do
      write_byte t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

let blit_in t addr src =
  let len = Bytes.length src in
  let off = fast_write t addr len in
  if off >= 0 then begin
    for p = first_page off to last_page off len do
      let lo = piece_lo off p in
      Bytes.blit src (lo - off) (writable t p) (lo land page_mask) (piece_hi off len p - lo)
    done;
    mark_dirty t off len
  end
  else
    for i = 0 to len - 1 do
      write_byte t (Int64.add addr (Int64.of_int i)) (Char.code (Bytes.get src i))
    done

let blit_out t addr len =
  let off = fast_read t addr len in
  if off >= 0 then begin
    let out = Bytes.create len in
    for p = first_page off to last_page off len do
      let lo = piece_lo off p in
      Bytes.blit t.pages.(p) (lo land page_mask) out (lo - off) (piece_hi off len p - lo)
    done;
    out
  end
  else begin
    let out = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.set out i (Char.chr (read_byte t (Int64.add addr (Int64.of_int i))))
    done;
    out
  end

let fill t addr len byte =
  let off = fast_write t addr len in
  if off >= 0 then begin
    let c = Char.unsafe_chr (byte land 0xFF) in
    for p = first_page off to last_page off len do
      let lo = piece_lo off p in
      Bytes.fill (writable t p) (lo land page_mask) (piece_hi off len p - lo) c
    done;
    mark_dirty t off len
  end
  else
    for i = 0 to len - 1 do
      write_byte t (Int64.add addr (Int64.of_int i)) byte
    done

(* Host-side reset: does not fire the write hook. *)
let clear t =
  Array.fill t.pages 0 (Array.length t.pages) zero_page;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\001'

let snapshot t =
  let out = Bytes.create t.size in
  for p = 0 to Array.length t.pages - 1 do
    let lo = p lsl page_bits in
    Bytes.blit t.pages.(p) 0 out lo (piece_hi 0 t.size p - lo)
  done;
  out

(* If page [p] is dirty, copy it from [src] to [dst] and mark it clean.
   A zero page copies as a pointer; a page of its own moves into [dst]'s
   own page, or into a new one. *)
let copy_page t ~src ~dst p =
  if Bytes.unsafe_get t.dirty p <> '\000' then begin
    let s = src.(p) in
    if s == zero_page then dst.(p) <- zero_page
    else if dst.(p) == zero_page then dst.(p) <- Bytes.copy s
    else Bytes.blit s 0 dst.(p) 0 page_size;
    Bytes.unsafe_set t.dirty p '\000'
  end

(* Copy every dirty page from [src] to [dst], then mark it clean: after
   this the two agree on every page.  Remedy checkpoints on every clean
   tick, when few pages are dirty, so the map is scanned eight pages at a
   time: one [get_int64_ne] tests a word of it, and a clean word costs
   nothing more.  A per-byte tail covers a page count that is not a
   multiple of 8. *)
let copy_dirty t ~src ~dst =
  let n = Bytes.length t.dirty in
  let words = n lsr 3 in
  for w = 0 to words - 1 do
    if Bytes.get_int64_ne t.dirty (w lsl 3) <> 0L then
      for p = w lsl 3 to (w lsl 3) + 7 do
        copy_page t ~src ~dst p
      done
  done;
  for p = words lsl 3 to n - 1 do
    copy_page t ~src ~dst p
  done

let dirty_pages t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.dirty;
  !n

let checkpoint t =
  let image =
    match t.image with
    | Some image -> image
    | None ->
      let image = Array.make (Array.length t.pages) zero_page in
      t.image <- Some image;
      image
  in
  copy_dirty t ~src:t.pages ~dst:image

let rollback t =
  match t.image with
  | Some image -> copy_dirty t ~src:image ~dst:t.pages
  | None -> invalid_arg "Guest_mem.rollback: no checkpoint"

let access t =
  { Interp.read_byte = read_byte t; write_byte = write_byte t }
