(** Basic blocks and their SEDSpec-relevant kinds.

    The paper's device state change log tags each block with auxiliary
    information used to classify ES-CFG blocks (entry, exit, conditional,
    command decision, command end).  In this reproduction the tag is carried
    on the IR block itself — that is precisely the information the paper's
    instrumentation extracts from the source. *)

type kind =
  | Normal
  | Entry  (** First block a handler executes; parses the I/O request. *)
  | Exit   (** Last block of an I/O round. *)
  | Cmd_decision
      (** Identifies the current device command (a switch over the command
          byte); keys the ES-CFG command access table. *)
  | Cmd_end
      (** Marks the completion of the current command's execution. *)

type t = {
  label : string;
  kind : kind;
  stmts : Stmt.t list;
  term : Term.t;
}

val kind_to_string : kind -> string

val v : ?kind:kind -> string -> Stmt.t list -> Term.t -> t
(** [v label stmts term] builds a block ([kind] defaults to [Normal]). *)

val pp : Format.formatter -> t -> unit
