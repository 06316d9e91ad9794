(** Static well-formedness checks for device programs.

    Devices are data, so a malformed device model would otherwise surface as
    a confusing runtime failure deep inside an experiment.  [check] is run
    by the test suite over every shipped device model. *)

type error = {
  where : Program.bref option;
  message : string;
}

val check : Program.t -> error list
(** Returns all violations found:
    - branch/goto/switch/icall successors resolve to blocks of the handler;
    - the first block of a handler has kind [Entry]; no other block does;
    - every handler has at least one [Exit]-kind block and [Exit] blocks
      terminate with [Halt];
    - referenced fields exist in the layout; buffer operations target [Buf]
      fields; [Set_field] targets scalars;
    - locals are assigned somewhere in the handler before any block reads
      them (flow-insensitive approximation);
    - request parameters read by blocks are declared by the handler;
    - [Cmd_decision] blocks terminate with [Switch]. *)

val check_graph :
  Program.t ->
  nodes:(Program.bref * Program.bref list) list ->
  pass_through:(Block.t -> bool) ->
  error list
(** Validate a graph layered over a program: every node bref must resolve
    to a block, and every successor must either be a graph node itself or
    chase to one through pass-through blocks — blocks satisfying
    [pass_through] with an unconditional terminator ([Goto] chains; a
    [Halt] ends the chase legitimately).  Reports dangling successors,
    off-graph blocks that are not pass-through, decisions reached
    mid-chase, and non-terminating chases.  Used to assert that reduced
    execution specifications keep the walker on defined paths. *)

val validate_result : Program.t -> (unit, string) result
(** [Ok ()] when {!check} finds nothing; otherwise [Error msg] where [msg]
    is a readable report naming every offending block. *)

val check_exn : Program.t -> unit
(** Raises [Failure] with the {!validate_result} report when [check] is
    non-empty. *)

val pp_error : Format.formatter -> error -> unit
