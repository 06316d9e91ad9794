module Prng = Sedspec_util.Prng

type result = {
  device : string;
  trained_blocks : int;
  fuzz_blocks : int;
  covered : int;
  effective : float;
}

let record_blocks m device f =
  let set : (Devir.Program.bref, unit) Hashtbl.t = Hashtbl.create 64 in
  Interp.with_hooks (Vmm.Machine.interp_of m device)
    { Interp.silent_hooks with Interp.on_block = (fun bref _ -> Hashtbl.replace set bref ()) }
    f;
  set

let measure ?(seed = 7L) ?(fuzz_cases = 60)
    (module W : Workload.Samples.DEVICE_WORKLOAD) =
  (* Training coverage. *)
  let m1 = W.make_machine W.paper_version in
  let trainer = W.trainer ~cases:!Spec_cache.training_cases in
  let trained =
    record_blocks m1 W.device_name (fun () ->
        for case = 0 to trainer.Sedspec.Pipeline.cases - 1 do
          trainer.Sedspec.Pipeline.run_case m1 case
        done)
  in
  (* Legitimate-behaviour fuzzing: the full benign mix, rare commands
     included at a high rate, unprotected. *)
  let m2 = W.make_machine W.paper_version in
  let rng = Prng.create seed in
  let fuzz =
    record_blocks m2 W.device_name (fun () ->
        for _ = 1 to fuzz_cases do
          let mode =
            if Prng.bool rng then Workload.Samples.Random
            else Workload.Samples.Sequential
          in
          W.soak_case ~mode ~rng ~rare_prob:0.10 ~ops:20 m2
        done)
  in
  let covered =
    Hashtbl.fold
      (fun bref () acc -> if Hashtbl.mem trained bref then acc + 1 else acc)
      fuzz 0
  in
  {
    device = W.device_name;
    trained_blocks = Hashtbl.length trained;
    fuzz_blocks = Hashtbl.length fuzz;
    covered;
    effective =
      (if Hashtbl.length fuzz = 0 then 1.0
       else float_of_int covered /. float_of_int (Hashtbl.length fuzz));
  }

let pp_result ppf r =
  Format.fprintf ppf "%s: %d trained / %d fuzz-reached -> %s effective"
    r.device r.trained_blocks r.fuzz_blocks
    (Sedspec_util.Table.fmt_pct r.effective)
