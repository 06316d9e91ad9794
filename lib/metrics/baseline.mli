(** Nioh-vs-SEDSpec comparison (paper §VII-B2).

    The Nioh experiment referenced by the paper covers five CVEs on three
    devices (FDC Venom, SCSI 5158/4439, PCNet 7909, and the AHCI UAF whose
    analog lives in our SCSI model).  This harness runs each against

    - the hand-written Nioh state machine for the device, and
    - an automatically trained SEDSpec checker (all strategies),

    recording who detects what.  The expected divergence is exactly the
    paper's: Nioh additionally catches the use-after-free analog (its
    manual model knows completions require an active request), while
    SEDSpec catches everything else without any manual model. *)

type verdict = {
  cve : string;
  device : string;
  nioh_detected : bool;
  sedspec_detected : bool;
}

val nioh_cves : string list
(** The five Nioh-experiment CVEs. *)

val run : unit -> verdict list

val benign_nioh_fp : string -> int
(** Run the device's benign soak (rare commands included) under the Nioh
    monitor and count flagged cases — the manual model covers rare
    commands, so this should be zero, at the cost of having been written
    by hand. *)
