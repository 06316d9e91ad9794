(** Span tracer for the traced run.

    Spans are taken from outside the program, at the public seams the
    benchmark can wrap: each workload operation (a sector transfer, a
    frame, a [Fleet.Vm.tick]) is an [op] span; the machine interposer
    wrapper adds, per interaction, an [interaction] span tiled by
    [checker.before] (the pre-execution walk), [interp] (the device run,
    from the return of [before] to the entry of [after]) and
    [checker.after] (sync completion and shadow commit).  The four clock
    reads per interaction are shared between adjacent spans, so the three
    seam spans cover their interaction exactly.

    Each span holds its kind, start and end (monotonic ns), minor words
    allocated at both ends, parent and op id.  Spans of one round go into
    a preallocated buffer: recording allocates nothing, so the words a span
    counts are the program's own.  The benchmark folds
    each traced round into per-kind totals and keeps the last round's
    spans for {!write}. *)

val enabled : bool ref
(** Workloads open op spans only while this is set. *)

val op_begin : unit -> unit
val op_end : unit -> unit
(** Open and close the span of one workload op. *)

val wrap : Vmm.Machine.interposer -> Vmm.Machine.interposer
(** The interposer with interaction and seam spans around it. *)

val start_round : unit -> unit
(** Empty the buffer and note the round's start. *)

type totals = {
  mutable rounds : int;
  mutable round_ns : float;  (** Wall time of the traced rounds. *)
  self_ns : float array;  (** Self time per span kind ([k_op] ... [k_after]). *)
  self_words : float array;  (** Self minor words per span kind. *)
  mutable interactions : int;
  mutable errors : string list;  (** Nesting violations and overflows. *)
}

(** Span kinds, indexing {!totals}. *)

val k_op : int
val k_before : int
val k_interp : int
val k_after : int

val create_totals : unit -> totals

val end_round : totals -> unit
(** Check the round's span nesting, compute self-times and add them to
    the totals. *)

val write : string -> setup:(string * float * float) list -> unit
(** Write the set-up spans (CPU seconds, no parent or op) and then the
    last traced round's spans as tab-separated lines:
    [index kind start end parent op minor_words_start minor_words_end]. *)
