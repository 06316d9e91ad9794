(** A complete emulated-device program: layout, handlers, callbacks and the
    synthetic code addresses used by the processor-trace simulator.

    A device exposes one handler per I/O entry point (port read/write, MMIO
    read/write, DMA kick, packet receive, ...).  Each handler is a flat
    graph of basic blocks.  Blocks receive synthetic code addresses
    ([code_base + 16 * global_index]) so the PT packet stream can reference
    them exactly as real PT references instruction pointers.  That global
    index is the program's block index (below): the interpreter, the PT
    decoder, the ITC-CFG and the ES-CFG constructor all walk it. *)

type callback_action =
  | Raise_irq_line
  | Lower_irq_line
  | Run_handler of string
      (** Invoke another handler of the same device (completion routines,
          internal transfers).  Runs with the parameters of the calling
          request. *)
  | Noop

type callback = { cb_name : string; action : callback_action }

type handler = {
  hname : string;
  params : string list;  (** Request parameter names the handler reads. *)
  blocks : Block.t list; (** First block is the handler's entry. *)
}

type bref = { handler : string; label : string }
(** A block reference — the IR's notion of a source location. *)

type t

val make :
  name:string ->
  layout:Layout.t ->
  ?code_base:int64 ->
  ?callbacks:(int64 * callback) list ->
  handler list ->
  t
(** Builds a program.  [code_base] defaults to [0x40_0000].  Raises
    [Invalid_argument] on duplicate handler names. *)

val name : t -> string
val layout : t -> Layout.t
val code_base : t -> int64
val handlers : t -> handler list
val callbacks : t -> (int64 * callback) list

val find_handler : t -> string -> handler
(** Raises [Not_found]. *)

val find_block : t -> bref -> Block.t
(** Raises [Not_found]. *)

val find_callback : t -> int64 -> callback option

val address_of : t -> bref -> int64
(** Synthetic code address of a block.  Raises [Not_found]. *)

val block_at : t -> int64 -> bref option
(** Inverse of {!address_of}. *)

val code_range : t -> int64 * int64
(** [lo, hi) address range covering all blocks of the device — the filter
    range configured into the PT simulator. *)

val block_count : t -> int

val iter_blocks : t -> (bref -> Block.t -> unit) -> unit
(** Iterate all blocks in address order. *)

(** {1 The block index}

    Blocks are numbered [0 .. block_count - 1] in address order: block [i]
    starts at [code_base + 16 * i].  {!make} resolves every block's
    successor labels and every handler's entry once, and nothing changes
    the index afterwards, so domains may share it.  A label that names no
    block of its handler does not fail {!make}: {!succ_index} raises when
    a walk reaches it, as {!find_block} does for such a label. *)

val index_of : t -> bref -> int
(** Raises [Not_found]. *)

val index_at : t -> int64 -> int
(** The block that starts at an address, by arithmetic; [-1] when no block
    starts there. *)

val bref_of_index : t -> int -> bref
val block_of_index : t -> int -> Block.t

val succ_index : t -> int -> int -> int
(** [succ_index t i k]: the index of block [i]'s [k]-th successor label,
    in {!Term.successors} order (the taken side before the other, the
    cases in source order before the default).  Raises [Not_found] when
    that label names no block of [i]'s handler. *)

val entry_index : t -> string -> int
(** A handler's entry block; [-1] for a handler with no blocks.  Raises
    [Not_found] for a name the program does not define. *)

val pp_bref : Format.formatter -> bref -> unit
val bref_to_string : bref -> string
val bref_equal : bref -> bref -> bool
val bref_compare : bref -> bref -> int
