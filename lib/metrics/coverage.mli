(** Effective coverage (paper Table III, last column).

    The paper approximates "all legitimate behaviour paths" by fuzzing the
    device for an hour (coverage converges quickly), then reports the
    fraction of those paths the training corpus covered.  We fuzz with the
    full benign operation mix — rare maintenance commands included and
    parameters drawn from the whole legitimate space — and compare block
    coverage sets. *)

type result = {
  device : string;
  trained_blocks : int;
  fuzz_blocks : int;
  covered : int;  (** Fuzz-reached blocks also covered by training. *)
  effective : float;  (** covered / fuzz_blocks. *)
}

val measure :
  ?seed:int64 ->
  ?fuzz_cases:int ->
  (module Workload.Samples.DEVICE_WORKLOAD) ->
  result
(** Fuzz cases have 20 ops each.  Defaults: seed 7, 60 fuzz cases ("one
    hour" of fuzzing). *)

val pp_result : Format.formatter -> result -> unit
