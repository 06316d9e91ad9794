(** Def-use analysis over handler locals.

    Handlers are small, so the analysis is intraprocedural and
    flow-insensitive: a local is described by the set of expressions ever
    assigned to it in the handler.  {!influencing_fields} computes the
    control-structure fields that can reach an expression through local
    definitions — SEDSpec's CFG analyzer uses it to find the variables
    that influence conditional and indirect jumps.  Data-dependency
    recovery itself is [Sedspec.Datadep], over [Sedspec.Depgraph]'s
    flow-sensitive reaching definitions. *)

type t

val analyze : Devir.Program.handler -> t
(** Collect local definitions of one handler. *)

val influencing_fields : t -> Devir.Expr.t -> string list
(** Control-structure fields that flow into the expression, directly or
    through any chain of local definitions (guest loads contribute no
    fields).  Order: first encountered first; no duplicates. *)
