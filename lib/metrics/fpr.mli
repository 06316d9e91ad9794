(** False-positive soak experiments (paper Tables II and III).

    The protected device runs long benign workloads in the three
    interaction modes; every test case that raises any anomaly counts as a
    false positive (all soak traffic is benign by construction).  Time is
    simulated: one "hour" is a fixed budget of test cases, and each test
    case performs thousands of I/O interactions, like the paper's.  The
    rare-command tail drives the FP rate; its per-case probability is the
    paper's measured FPR for the device, so the FP-over-time counts
    reproduce Table II's shape in expectation. *)

type checkpoint = { at_hours : int; fp_cases : int; cases : int }

type result = {
  device : string;
  checkpoints : checkpoint list;
  total_cases : int;
  fp_cases : int;
  fpr : float;  (** N_L / N_T. *)
  param_check_fps : int;  (** Parameter-check anomalies on benign traffic
                              — the paper claims (and we verify) zero. *)
  interactions : int;
}

val paper_fpr : string -> float
(** The paper's Table III FPR for a device (used as the rare-command
    probability). *)

val soak :
  ?seed:int64 ->
  ?cases_per_hour:int ->
  ?checkpoint_hours:int list ->
  ?rare_prob:float ->
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  result
(** Each case performs 4..8 logical ops.  Defaults: seed 42, 120
    cases/hour (the paper's Table II counts imply roughly this volume at
    its FPRs), checkpoints at 10/20/30 h, [rare_prob] =
    [paper_fpr device].  The checker runs in enhancement mode so
    non-parameter anomalies only warn. *)

val pp_result : Format.formatter -> result -> unit
