(** Pseudo-C rendering of device programs.

    The device models are data; this renders them the way the
    corresponding QEMU C code reads — one function per handler, labels and
    gotos for the block structure — which is how DESIGN.md documents the
    models and how humans review them. *)

val handler_to_string : Program.t -> Program.handler -> string

val program_to_string : Program.t -> string
(** Layout (as a struct definition), callbacks, then every handler. *)
