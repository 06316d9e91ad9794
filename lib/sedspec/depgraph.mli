(** Per-handler dominators and reaching definitions over the device IR.

    Built from the device program — never on the walk hot path — and
    queried by {!Datadep} (flow-sensitive sync-point classification) and
    {!Attrib} (dominator roots and definition sites of changed blocks):

    - {b dominators} per handler CFG;
    - {b reaching definitions}, flow-sensitive, at per-statement
      granularity.  Locals and scalar fields define strongly; buffer
      writes define weakly (byte stores never kill a whole-buffer
      definition, which also soundly covers the IR's C-struct semantics
      where an out-of-range buffer store spills into adjacent fields). *)

type var = Vlocal of string | Vfield of string

type def_site = {
  d_label : string;  (** Block label of the defining statement. *)
  d_index : int;  (** Statement index within the block. *)
  d_stmt : Devir.Stmt.t;
}

type t

val build : Devir.Program.t -> t

val dominates : t -> handler:string -> string -> string -> bool
(** [dominates t ~handler a b]: every handler-entry-to-[b] path passes
    through [a] (reflexive).  [false] when either label is unknown. *)

val reaching_defs :
  t -> handler:string -> label:string -> ?before:int -> var -> def_site list
(** Definitions of [var] that reach the given program point: just before
    statement [before] of the block, or the block's terminator when
    [before] is omitted.  Definition sites are returned in program
    order. *)
