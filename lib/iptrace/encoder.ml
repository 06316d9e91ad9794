type t = {
  filter : Filter.t;
  on_window : Packet.t list -> unit;
  mutable window_rev : Packet.t list;  (** The open window, newest first. *)
  mutable tnt_buf : bool list;  (** Newest first. *)
  mutable tnt_count : int;  (** [List.length tnt_buf]. *)
  mutable in_window : bool;
      (** True from an in-range PGE until its window closes; false while
          the filter suppresses a window. *)
  mutable trace_bytes : int;
}

let create filter ~on_window =
  {
    filter;
    on_window;
    window_rev = [];
    tnt_buf = [];
    tnt_count = 0;
    in_window = false;
    trace_bytes = 0;
  }

let emit t p =
  t.window_rev <- p :: t.window_rev;
  t.trace_bytes <- t.trace_bytes + Packet.encoded_size p

let flush_tnt t =
  if t.tnt_count > 0 then begin
    emit t (Packet.Tnt_short (List.rev t.tnt_buf));
    t.tnt_buf <- [];
    t.tnt_count <- 0
  end

(* The window's pending bits go with it: left behind, the next window's
   first branches would consume them. *)
let close t =
  if t.in_window then begin
    flush_tnt t;
    let window = List.rev t.window_rev in
    t.window_rev <- [];
    t.in_window <- false;
    t.on_window window
  end

let feed t (ev : Interp.Event.trace_event) =
  match ev with
  | Interp.Event.Pge addr ->
    (* An open window here was cut short by a trap: it had no PGD. *)
    close t;
    if Filter.contains t.filter addr then begin
      t.in_window <- true;
      emit t Packet.Psb;
      emit t Packet.Psbend;
      emit t (Packet.Tip_pge addr)
    end
  | Interp.Event.Tnt taken ->
    if t.in_window then begin
      t.tnt_buf <- taken :: t.tnt_buf;
      t.tnt_count <- t.tnt_count + 1;
      if t.tnt_count = 6 then flush_tnt t
    end
  | Interp.Event.Tip addr ->
    if t.in_window then begin
      flush_tnt t;
      if Filter.contains t.filter addr then emit t (Packet.Tip addr)
      else
        (* Real PT suppresses out-of-range targets; the decoder sees a
           filtered TIP as a hole.  We keep a placeholder so decoding can
           detect contaminated streams in tests. *)
        emit t Packet.Pad
    end
  | Interp.Event.Pgd ->
    if t.in_window then begin
      flush_tnt t;
      emit t Packet.Tip_pgd;
      close t
    end

let finish = close
let trace_bytes t = t.trace_bytes
