(** Atomic, leak-free file writes.

    [write path text] writes [text] to a temp file in [path]'s directory
    (same filesystem, so the rename is atomic) and renames it over
    [path]: readers see either the old file or the complete new one,
    never a truncated write.  On any exception the channel is closed,
    the temp file is removed and the exception is re-raised. *)

val write : string -> string -> unit
