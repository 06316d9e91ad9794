(** Pure expressions of the device IR.

    Expressions read device control-structure fields, request parameters and
    handler-local temporaries; they never write.  All arithmetic is
    performed at an explicit width with C-style wraparound; the interpreter
    additionally records whether any operation wrapped, which feeds the
    parameter check strategy. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div   (** unsigned; division by zero traps *)
  | Rem   (** unsigned; division by zero traps *)
  | And
  | Or
  | Xor
  | Shl
  | Shr   (** logical shift right *)

type cmpop =
  | Eq
  | Ne
  | Ltu  (** unsigned < *)
  | Leu
  | Gtu
  | Geu
  | Lts  (** signed < *)
  | Les
  | Gts
  | Ges

type t =
  | Const of int64 * Width.t
  | Field of string
      (** Scalar or function-pointer field of the control structure. *)
  | Buf_byte of string * t
      (** [Buf_byte (buf, idx)]: byte [idx] of buffer field [buf].  Reads
          past the buffer fall into adjacent fields (C struct semantics). *)
  | Buf_len of string
      (** Declared size of a buffer field; a compile-time constant like C's
          [sizeof]. *)
  | Param of string
      (** I/O request parameter, e.g. ["addr"], ["data"], ["size"]. *)
  | Local of string
      (** Handler-local temporary, set by {!Stmt.Set_local}. *)
  | Binop of binop * Width.t * t * t
  | Cmp of cmpop * t * t  (** Yields 0 or 1 (width [W8]). *)
  | Not of t              (** Logical negation: 0 -> 1, nonzero -> 0. *)

val binop_to_string : binop -> string
val cmpop_to_string : cmpop -> string

val fields : t -> string list
(** All control-structure field names read by the expression (scalar reads,
    buffer reads and [Buf_len]), without duplicates, in first-use order. *)

val locals : t -> string list
(** All handler-local temporaries read by the expression. *)

val params : t -> string list
(** All request parameters read by the expression. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
