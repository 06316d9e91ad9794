(** A live instance of a device control structure.

    The arena stores the structure as a flat byte array according to its
    {!Layout}, so field accesses have exactly C's aliasing behaviour:
    writing past the end of a buffer corrupts whatever field follows it in
    the layout — this is what makes the reproduced exploits (Venom,
    CVE-2020-14364, CVE-2015-7504, ...) genuinely take over length fields
    and function pointers rather than being simulated by fiat.  Writing
    past the end of the whole structure raises {!Out_of_arena}, the analog
    of a crash the host would take. *)

type t

exception Out_of_arena of { field : string; index : int }
(** Raised when a buffer access escapes the entire control structure. *)

val create : Layout.t -> t
(** Fresh arena with every field at its declared initial value. *)

val layout : t -> Layout.t

val reset : t -> unit
(** Restore all fields to their initial values (device reset). *)

val get : t -> string -> int64
(** Read a scalar or function-pointer field. *)

val set : t -> string -> int64 -> unit
(** Write a scalar field (truncated to its width). *)

val get_buf_byte : t -> string -> int -> int
(** [get_buf_byte t buf idx] reads byte [idx] relative to [buf]'s offset.
    Indices beyond the buffer read the adjacent fields; indices escaping
    the structure raise {!Out_of_arena}.  Negative indices that stay within
    the structure read the preceding fields, as in C. *)

val set_buf_byte : t -> string -> int -> int -> unit
(** Same addressing rules as {!get_buf_byte}, for writes. *)

val blit_to_buf : t -> string -> int -> bytes -> unit
(** [blit_to_buf t buf off src] writes [src] starting at [buf + off], byte
    by byte with overflow semantics. *)

val read_buf : t -> string -> int -> int -> bytes
(** [read_buf t buf off len] reads [len] bytes starting at [buf + off]. *)

val snapshot : t -> bytes
val restore : t -> bytes -> unit
(** Save / restore the raw structure contents (same layout required). *)

val save_into : t -> bytes -> unit
(** Copy the raw contents into a caller-provided buffer (no allocation). *)

val copy_into : src:t -> dst:t -> unit
(** Copy [src]'s contents into [dst] without allocating (same layout
    size required). *)

val copy_spans : spans:(int * int) list -> src:t -> dst:t -> unit
(** Copy only the given (offset, length) spans, a word at a time and
    without allocating.  Raises [Invalid_argument] for a span outside
    either arena. *)

val scalar_fields : t -> (string * int64) list
(** Current values of all non-buffer fields, in layout order. *)

(** {1 Raw offset access}

    Absolute-offset accessors for code that has already resolved field
    names to layout offsets (the lowered interpreter and the compiled
    ES-Checker).  They perform no name lookup: a scalar writer stores the
    low bytes of its value, as {!set} stores a value truncated to the
    field's width.  Offsets must come from {!Layout.offset}; byte accessors only
    carry the byte-array bounds check, so callers enforcing C overflow
    semantics must range-check against {!size} themselves. *)

val size : t -> int
(** Total byte length of the control structure. *)

val get_byte_at : t -> int -> int
val set_byte_at : t -> int -> int -> unit

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
(** Little-endian unsigned loads at an absolute offset, as {!get}
    performs after resolving the field, returned as an unboxed [int]. *)

val read_u64 : t -> int -> int64

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
(** Little-endian stores of the low 8, 16 or 32 bits of an [int]. *)

val write_u64 : t -> int -> int64 -> unit

val pp : Format.formatter -> t -> unit
