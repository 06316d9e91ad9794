(** Spec evolution: structural diff of ES-CFGs.

    Production traffic contains benign behaviour the trainer never saw,
    so the specification is a living artifact: candidates are retrained,
    compared against the enforced base, shadow-scored by the fleet and
    canaried before promotion.  This module supplies the comparison
    layer:

    - {!diff}: a structural delta of two ES-CFGs keyed by bref, so it
      works across device versions and independently trained specs —
      added/removed nodes, re-enveloped transition data (new branch
      directions, switch cases, indirect targets, successor edges),
      command-set, access-table and sync-point deltas, rendered as
      deterministic JSON ({!diff_to_json}). *)

type envelope_change = {
  e_bref : Devir.Program.bref;
  e_new_taken : bool;  (** Candidate adds taken evidence the base lacks. *)
  e_new_not_taken : bool;
  e_new_cases : (int64 * string) list;
  e_gone_cases : (int64 * string) list;
  e_new_itargets : int64 list;
  e_gone_itargets : int64 list;
  e_new_succs : Devir.Program.bref list;
  e_gone_succs : Devir.Program.bref list;
}

type diff = {
  base_revision : int;
  base_provenance : Es_cfg.provenance;
  cand_revision : int;
  cand_provenance : Es_cfg.provenance;
  base_nodes : int;
  cand_nodes : int;
  added_nodes : Devir.Program.bref list;  (** In candidate, not base. *)
  removed_nodes : Devir.Program.bref list;  (** In base, not candidate. *)
  reenveloped : envelope_change list;
      (** Nodes in both whose transition envelope differs. *)
  added_cmds : Es_cfg.cmd_key list;
  removed_cmds : Es_cfg.cmd_key list;
  added_access : (Es_cfg.cmd_key option * Devir.Program.bref) list;
  removed_access : (Es_cfg.cmd_key option * Devir.Program.bref) list;
  added_syncs : (Devir.Program.bref * string list) list;
  removed_syncs : (Devir.Program.bref * string list) list;
}

val diff : base:Es_cfg.t -> cand:Es_cfg.t -> diff
(** Every list is deterministically sorted; a sync point whose local set
    changed appears as removed+added. *)

val is_empty : diff -> bool
(** No delta in any category — [diff ~base:s ~cand:s] is always empty. *)

val change_count : diff -> int

val diff_to_json : diff -> Sedspec_util.Json.t
(** Deterministic (sorted, jobs-independent) JSON rendering. *)
