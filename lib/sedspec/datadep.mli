(** Data dependency recovery (paper §V-D).

    Control-flow transitions can depend on variables other than the device
    state parameters.  For each NBTD of the specification this module
    classifies how the ES-Checker obtains the decision's inputs:

    - [Substituted] — the decision is computable from device state and
      request parameters alone (the paper rewrites the NBTD with the
      recovered expression; our checker replays the lifted definitions,
      which is the same computation);
    - [Guest_replay] — the decision additionally needs guest-memory values;
      the checker re-reads guest memory (part of the I/O data);
    - [Sync_point] — the decision depends on host-side values the checker
      cannot see; a sync point is inserted and the check for that
      interaction runs after the device, with the synchronised values. *)

type classification = Substituted | Guest_replay | Sync_point

type report = {
  per_site : (Devir.Program.bref * classification) list;
  substituted : int;
  guest_replay : int;
  sync_points : int;
}

val analyze : Es_cfg.t -> report
(** Classify every decision site of the specification.  The
    classification joins over {e all} of the terminator's expressions
    (any host dependence ⇒ [Sync_point]; else any guest dependence ⇒
    [Guest_replay]) and chases definitions flow-sensitively through the
    {!Depgraph} DDG — only definitions that can actually reach the
    decision count. *)

val classify_site :
  ?graph:Depgraph.t ->
  Devir.Program.t ->
  Devir.Program.bref ->
  Devir.Expr.t ->
  classification
(** Classify one decision expression at a site, chasing only reaching
    definitions.  [graph] avoids rebuilding the dependence graphs when
    classifying many sites of one program. *)

val classify_exprs :
  ?graph:Depgraph.t ->
  Devir.Program.t ->
  Devir.Program.bref ->
  Devir.Expr.t list ->
  classification option
(** Join of {!classify_site} over an expression list ([None] for [[]]).
    This is the fix for the first-expression-only bug: a site is a sync
    point as soon as {e any} of its expressions is host-derived, not just
    the head. *)

val pp_report : Format.formatter -> report -> unit
