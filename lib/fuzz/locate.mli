(** Cross-version deviation locator (ROADMAP item 3).

    For each catalogued CVE, fuzz the device across its version pair —
    the {!Devices.Qemu_version}-gated vulnerable model on the left, the
    patched model on the right, each side checked by the spec trained at
    its own version ({!Exec.cross_version_profiles}) — and turn every
    divergence into a localized behaviour delta:

    + the differential loop ({!Loop.run}) finds diverging interaction
      sequences and ddmin-shrinks each to a minimized witness;
    + every witness is replayed once per side and its coverage/anomaly
      symmetric difference attributed to IR blocks
      ({!Sedspec.Attrib.divergence_blocks});
    + witnesses cluster by the dominator roots of their block sets
      ({!Sedspec.Attrib.roots} over {!Sedspec.Depgraph}), and the union
      is checked against the static program diff — the blocks the
      version gate actually patches.

    With a fixed seed the report is bit-identical for any job count: the
    loop derives candidates sequentially and evaluates them on
    {!Sedspec_util.Runner} domains, and each CVE's sub-seed depends only
    on the master seed and the CVE id. *)

type options = {
  device : string option;  (** Restrict to one device's CVEs. *)
  cve : string option;  (** Restrict to one CVE. *)
  budget : int;  (** Mutant evaluations per CVE. *)
  seed : int64;
  jobs : int;
  max_steps : int;  (** Mutant length cap. *)
}

val default_options : options
(** No filters, budget 128/CVE, seed 0, 1 job, 48-step mutants.  Each
    witness shrink runs {!Loop.ddmin} with its default budget. *)

val targets : options -> Attacks.Attack.t list
(** The catalogued CVEs the filters select, in catalogue order. *)

val locate_cve : options -> Attacks.Attack.t -> Delta.cve_delta
(** Fuzz one CVE's version pair and attribute its divergences. *)

val run : options -> Delta.t
(** {!locate_cve} over {!targets}, sequentially (each CVE's loop is
    internally parallel). *)
