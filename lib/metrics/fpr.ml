module Prng = Sedspec_util.Prng

type checkpoint = { at_hours : int; fp_cases : int; cases : int }

type result = {
  device : string;
  checkpoints : checkpoint list;
  total_cases : int;
  fp_cases : int;
  fpr : float;
  param_check_fps : int;
  interactions : int;
}

let paper_fpr = function
  | "fdc" -> 0.0014
  | "ehci" -> 0.0010
  | "pcnet" -> 0.0011
  | "sdhci" -> 0.0009
  | "scsi" -> 0.0017
  | _ -> 0.0012

let modes =
  [| Workload.Samples.Sequential; Workload.Samples.Random; Workload.Samples.Random_delay |]

let soak ?(seed = 42L) ?(cases_per_hour = 120) ?(checkpoint_hours = [ 10; 20; 30 ])
    ?rare_prob (module W : Workload.Samples.DEVICE_WORKLOAD) =
  let rare_prob = Option.value rare_prob ~default:(paper_fpr W.device_name) in
  let rng = Prng.create seed in
  let config =
    { Sedspec.Checker.default_config with Sedspec.Checker.mode = Sedspec.Checker.Enhancement }
  in
  let m, checker = Spec_cache.fresh_protected_machine ~config (module W) W.paper_version in
  let max_hours = List.fold_left max 0 checkpoint_hours in
  let fp_cases = ref 0 and cases = ref 0 and param_fps = ref 0 in
  let checkpoints = ref [] in
  for hour = 1 to max_hours do
    for k = 0 to cases_per_hour - 1 do
      let mode = modes.(k mod Array.length modes) in
      let ops = Prng.int_in rng 4 8 in
      (* Spread the rare-command probability over the case's ops so that
         P(case contains a rare command) = rare_prob to first order. *)
      let per_op = rare_prob /. float_of_int ops in
      W.soak_case ~mode ~rng ~rare_prob:per_op ~ops m;
      incr cases;
      let anoms = Sedspec.Checker.drain_anomalies checker in
      if anoms <> [] then incr fp_cases;
      List.iter
        (fun (a : Sedspec.Checker.anomaly) ->
          if a.strategy = Sedspec.Checker.Parameter_check then incr param_fps)
        anoms;
      Vmm.Machine.clear_warnings m;
      if Vmm.Machine.halted m then begin
        Vmm.Machine.resume m;
        Sedspec.Checker.resync checker
      end
    done;
    if List.mem hour checkpoint_hours then
      checkpoints :=
        { at_hours = hour; fp_cases = !fp_cases; cases = !cases } :: !checkpoints
  done;
  let stats = Sedspec.Checker.stats checker in
  {
    device = W.device_name;
    checkpoints = List.rev !checkpoints;
    total_cases = !cases;
    fp_cases = !fp_cases;
    fpr = (if !cases = 0 then 0.0 else float_of_int !fp_cases /. float_of_int !cases);
    param_check_fps = !param_fps;
    interactions = stats.Sedspec.Checker.interactions;
  }

let pp_result ppf r =
  Format.fprintf ppf "%s: %d/%d cases flagged (FPR %s, %d interactions)%s [%s]"
    r.device r.fp_cases r.total_cases
    (Sedspec_util.Table.fmt_pct r.fpr)
    r.interactions
    (if r.param_check_fps > 0 then
       Printf.sprintf " PARAM FPS=%d!" r.param_check_fps
     else "")
    (String.concat "; "
       (List.map
          (fun c -> Printf.sprintf "%dh:%d" c.at_hours c.fp_cases)
          r.checkpoints))
