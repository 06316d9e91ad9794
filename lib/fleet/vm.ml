module Checker = Sedspec.Checker
module Remedy = Sedspec.Remedy
module Backoff = Sedspec_util.Backoff
module Prng = Sedspec_util.Prng
module W = Workload.Samples

type spec_origin =
  | Trained
  | Persisted of (unit -> string)
  | Candidate of (unit -> Sedspec.Pipeline.built)

type options = {
  device : string;
  ops_per_tick : int;
  rare_prob : float;
  deadline : int option;
  spec_origin : spec_origin;
  guard : bool;
  shadow : (unit -> Sedspec.Pipeline.built) option;
}

let default_options ~device =
  {
    device;
    ops_per_tick = 12;
    rare_prob = 0.05;
    deadline = None;
    spec_origin = Trained;
    guard = false;
    shadow = None;
  }

(* Spec-acquisition attempts before the fallback rebuild. *)
let max_attempts = 3

(* Verdict-stream lines a VM keeps: the newest, in a ring.  Every smoke
   and CLI default runs fewer ticks, so their reports hold every line. *)
let stream_keep = 64

(* One handler's shadow counts, bumped in place. *)
type site = { mutable agree : int; mutable stricter : int; mutable looser : int }

(* Shadow scoreboard: the candidate walks every interaction the enforced
   checker walks, but only its verdicts' {e comparison} is recorded — the
   enforced verdict always decides the interaction. *)
type shadow = {
  s_checker : Checker.t;
  s_revision : int;
  s_provenance : string;
  mutable s_agree : int;
  mutable s_stricter : int;  (** Candidate stricter than enforced. *)
  mutable s_looser : int;  (** Candidate looser — missed detections. *)
  s_sites : (string, site) Hashtbl.t;  (** Keyed by handler. *)
  mutable s_last_handler : string;
  mutable s_last_site : site;
      (** The site of the last handler scored: a request whose handler is
          physically that string (routing hands out one string per
          binding) skips the table. *)
  mutable s_tick_agree : int;
  mutable s_tick_stricter : int;
  mutable s_tick_looser : int;
  mutable s_looser_rev : (int * int) list;
      (** [(tick, looser count)] of each tick with a looser verdict,
          newest first; its last entry is the first looser tick. *)
}

type core = {
  workload : (module W.DEVICE_WORKLOAD);
  machine : Vmm.Machine.t;
  checker : Checker.t;
  remedy : Remedy.t;
  coverage : Checker.coverage;
  validator : Guard.Validator.t option;
  guard_drained : int ref;  (** Guard anomalies fed to the remedy. *)
  shadow : shadow option;
}

type t = {
  index : int;
  opts : options;
  rng : Prng.t;  (** Workload stream; independent of the backoff stream. *)
  gov : Governor.t;
  core : core option;
  fail_reason : string;
  build_attempts : int;
  build_fallback : bool;
  backoff_delay : int;
  mutable ticks : int;
  mutable crashes : int;
  mutable halt_ticks : int;
  mutable warns : int;
  mutable anoms_param : int;
  mutable anoms_indirect : int;
  mutable anoms_cond : int;
  mutable anoms_internal : int;
  stream : string array;  (** The last [stream_keep] lines, a ring. *)
  mutable stream_lines : int;  (** Lines ever appended. *)
  mutable stream_crc : int32;  (** CRC-32 of every line, each with its newline. *)
}

(* A handler no request carries: a fresh string is physically equal to
   nothing else, so the first score goes through the table. *)
let no_handler = Bytes.to_string (Bytes.make 1 '\000')

let site_of sh handler =
  if handler == sh.s_last_handler then sh.s_last_site
  else begin
    let site =
      match Hashtbl.find sh.s_sites handler with
      | site -> site
      | exception Not_found ->
        let site = { agree = 0; stricter = 0; looser = 0 } in
        Hashtbl.add sh.s_sites handler site;
        site
    in
    sh.s_last_handler <- handler;
    sh.s_last_site <- site;
    site
  end

(* Score one seam's verdict pair; allocates nothing. *)
let score sh (req : Vmm.Machine.request) cand_v enf_v =
  let site = site_of sh req.Vmm.Machine.handler in
  let d = Vmm.Machine.strength cand_v - Vmm.Machine.strength enf_v in
  if d = 0 then begin
    sh.s_agree <- sh.s_agree + 1;
    sh.s_tick_agree <- sh.s_tick_agree + 1;
    site.agree <- site.agree + 1
  end
  else if d > 0 then begin
    sh.s_stricter <- sh.s_stricter + 1;
    sh.s_tick_stricter <- sh.s_tick_stricter + 1;
    site.stricter <- site.stricter + 1
  end
  else begin
    sh.s_looser <- sh.s_looser + 1;
    sh.s_tick_looser <- sh.s_tick_looser + 1;
    site.looser <- site.looser + 1
  end

(* Spec acquisition: retry the fallible source under seeded backoff, then
   fall back to a fresh (cache-bypassing) pipeline rebuild.  The serving
   machine is built first so a persisted spec parses against the exact
   program it will protect. *)
let acquire ~backoff_seed opts (machine : Vmm.Machine.t)
    (w : (module W.DEVICE_WORKLOAD)) =
  let module D = (val w) in
  let attempts = ref 0 in
  let step ~attempt:_ =
    incr attempts;
    match opts.spec_origin with
    | Trained -> (
      try Ok (`Built (Metrics.Spec_cache.built w D.paper_version))
      with e -> Error (Printexc.to_string e))
    | Persisted fetch -> (
      try
        let program =
          Interp.program (Vmm.Machine.interp_of machine D.device_name)
        in
        match Sedspec.Persist.of_string ~program (fetch ()) with
        | Ok spec -> Ok (`Spec spec)
        | Error msg -> Error msg
      with e -> Error (Printexc.to_string e))
    | Candidate fetch -> (
      (* Canary rung: this VM enforces the candidate.  A candidate that
         cannot be built falls through the same retry ladder to the
         scratch trained rebuild — the canary degrades to serving the
         known-good behaviour, never to serving nothing. *)
      try Ok (`Built (fetch ()))
      with e -> Error (Printexc.to_string e))
  in
  match
    Backoff.retry ~seed:backoff_seed ~max_attempts step
  with
  | Ok (got, spent) -> (got, !attempts, false, spent)
  | Error (f : string Backoff.failure) ->
    (* All retries burned: rebuild from scratch outside the cache so a
       poisoned source cannot wedge the VM.  A failure here propagates to
       [create]'s bulkhead and marks the VM failed. *)
    let scratch = D.make_machine D.paper_version in
    let built =
      Sedspec.Pipeline.build scratch ~device:D.device_name
        (D.trainer ~cases:!Metrics.Spec_cache.training_cases)
    in
    (`Built built, !attempts, true, f.Backoff.delay_total)

let create ~index ~seed opts =
  let root = Prng.create seed in
  let rng = Prng.split root in
  let backoff_seed = Prng.next root in
  let gov = Governor.create () in
  let base_config =
    Governor.checker_config (Governor.state gov) ~base:Checker.default_config
  in
  match
    let w = W.find opts.device in
    let module D = (val w : W.DEVICE_WORKLOAD) in
    let machine = D.make_machine D.paper_version in
    let got, attempts, fallback, spent = acquire ~backoff_seed opts machine w in
    let checker =
      match got with
      | `Built built ->
        Sedspec.Pipeline.protect ~config:base_config machine
          ~device:D.device_name built
      | `Spec spec ->
        Checker.attach ~config:base_config machine ~spec D.device_name
    in
    Checker.set_deadline checker opts.deadline;
    let coverage = Checker.coverage_create () in
    Checker.set_coverage checker (Some coverage);
    (* Shadow walk: a second, non-enforcing checker over the candidate
       spec, walked in lockstep by wrapping the enforced interposer.  The
       candidate's verdict is scored against the enforced one and then
       discarded — shadow mode can never change what the VM does.  Wired
       before the validator, whose layer goes after the lockstep. *)
    let shadow =
      match opts.shadow with
      | None -> None
      | Some fetch ->
        let cand = fetch () in
        let interp = Vmm.Machine.interp_of machine D.device_name in
        let s_checker =
          Checker.create
            ~config:(Checker.config checker)
            ~compiled:cand.Sedspec.Pipeline.arena
            ~spec:cand.Sedspec.Pipeline.spec
            ~device_arena:(Interp.arena interp)
            ~guest:(Vmm.Guest_mem.access (Vmm.Machine.ram machine))
            ()
        in
        Checker.set_deadline s_checker opts.deadline;
        let sh =
          {
            s_checker;
            s_revision = Sedspec.Es_cfg.revision cand.Sedspec.Pipeline.spec;
            s_provenance =
              Sedspec.Es_cfg.provenance_to_string
                (Sedspec.Es_cfg.provenance cand.Sedspec.Pipeline.spec);
            s_agree = 0;
            s_stricter = 0;
            s_looser = 0;
            s_sites = Hashtbl.create 8;
            s_last_handler = no_handler;
            s_last_site = { agree = 0; stricter = 0; looser = 0 };
            s_tick_agree = 0;
            s_tick_stricter = 0;
            s_tick_looser = 0;
            s_looser_rev = [];
          }
        in
        (* The candidate's sync points are a layer of their own; every
           layer hears every value.  A value reported at a block one
           checker never walks is never popped, and that checker drops it
           at its next [before]. *)
        let (_ : unit -> unit) =
          Interp.add_sync_points interp
            (Sedspec.Es_cfg.sync_points cand.Sedspec.Pipeline.spec)
            ~on_sync:(Checker.record_sync s_checker)
        in
        (* Lockstep wrapper: run the candidate first at both seams (its
           verdict cannot block, so ordering only affects bookkeeping),
           score, return the enforced verdict. *)
        let enforced = Checker.interposer checker in
        let sip = Checker.interposer s_checker in
        Vmm.Machine.set_interposer machine D.device_name
          {
            Vmm.Machine.before =
              (fun req ->
                let cand_v = sip.Vmm.Machine.before req in
                let enf_v = enforced.Vmm.Machine.before req in
                score sh req cand_v enf_v;
                enf_v);
            after =
              (fun req outcome ->
                let cand_v = sip.Vmm.Machine.after req outcome in
                let enf_v = enforced.Vmm.Machine.after req outcome in
                score sh req cand_v enf_v;
                enf_v);
          };
        Some sh
    in
    (* The response-direction validator's layer goes after the checker's,
       so attach it after [protect]. *)
    let validator =
      if opts.guard then
        Some
          (Guard.Validator.attach machine ~device:D.device_name
             ~profile:(Metrics.Spec_cache.guard_profile w D.paper_version))
      else None
    in
    let guard_drained = ref 0 in
    let aux_drain =
      match validator with
      | None -> fun () -> []
      | Some v ->
        fun () ->
          let l = Guard.Validator.drain_as_checker_anomalies v in
          guard_drained := !guard_drained + List.length l;
          l
    in
    let remedy =
      Remedy.create ~aux_drain machine ~device:D.device_name checker
    in
    ({ workload = w; machine; checker; remedy; coverage; validator;
       guard_drained; shadow }, attempts, fallback, spent)
  with
  | core, attempts, fallback, spent ->
    {
      index;
      opts;
      rng;
      gov;
      core = Some core;
      fail_reason = "";
      build_attempts = attempts;
      build_fallback = fallback;
      backoff_delay = spent;
      ticks = 0;
      crashes = 0;
      halt_ticks = 0;
      warns = 0;
      anoms_param = 0;
      anoms_indirect = 0;
      anoms_cond = 0;
      anoms_internal = 0;
      stream = Array.make stream_keep "";
      stream_lines = 0;
      stream_crc = 0l;
    }
  | exception e ->
    {
      index;
      opts;
      rng;
      gov;
      core = None;
      fail_reason = Printexc.to_string e;
      build_attempts = max_attempts;
      build_fallback = true;
      backoff_delay = 0;
      ticks = 0;
      crashes = 0;
      halt_ticks = 0;
      warns = 0;
      anoms_param = 0;
      anoms_indirect = 0;
      anoms_cond = 0;
      anoms_internal = 0;
      stream = Array.make stream_keep "";
      stream_lines = 0;
      stream_crc = 0l;
    }

let machine t = Option.map (fun c -> c.machine) t.core
let checker t = Option.map (fun c -> c.checker) t.core

let arena t =
  match t.core with
  | None -> None
  | Some c -> Checker.compiled_arena c.checker

let tick t =
  t.ticks <- t.ticks + 1;
  match t.core with
  | None -> ()
  | Some core ->
    let module D = (val core.workload : W.DEVICE_WORKLOAD) in
    (match core.shadow with
    | Some sh ->
      sh.s_tick_agree <- 0;
      sh.s_tick_stricter <- 0;
      sh.s_tick_looser <- 0
    | None -> ());
    let crash = ref 0 in
    (* Bulkhead: whatever the guest workload (or an injected fault the
       checker could not contain) throws stays inside this VM. *)
    (try
       D.soak_case ~mode:W.Sequential ~rng:t.rng ~rare_prob:t.opts.rare_prob
         ~ops:t.opts.ops_per_tick core.machine
     with _ ->
       incr crash;
       t.crashes <- t.crashes + 1);
    let warns = List.length (Vmm.Machine.warnings core.machine) in
    Vmm.Machine.clear_warnings core.machine;
    t.warns <- t.warns + warns;
    (* Classify this tick's anomalies before [Remedy.tick] adjudicates
       (and drains) them.  Deadline overruns already surface here as
       contained [Internal_error] anomalies, so burning them again via
       [deadline_overruns] would double-charge the budget. *)
    let p = ref 0 and i = ref 0 and c = ref 0 and x = ref 0 in
    List.iter
      (fun (a : Checker.anomaly) ->
        match a.Checker.strategy with
        | Checker.Parameter_check -> incr p
        | Checker.Indirect_jump_check -> incr i
        | Checker.Conditional_jump_check -> incr c
        | Checker.Internal_error -> incr x)
      (Checker.anomalies core.checker);
    t.anoms_param <- t.anoms_param + !p;
    t.anoms_indirect <- t.anoms_indirect + !i;
    t.anoms_cond <- t.anoms_cond + !c;
    t.anoms_internal <- t.anoms_internal + !x;
    (* Parameter-check hits are exploitation evidence, not budget noise:
       only the false-positive-prone strategies, contained internal
       errors and bulkhead catches burn the error budget.  Guard
       anomalies pending adjudication count like conditional hits: a
       hostile device must walk this VM down the governor's rungs. *)
    let gpend =
      match core.validator with
      | None -> 0
      | Some v -> List.length (Guard.Validator.anomalies v)
    in
    let burn = !i + !c + !x + !crash + gpend in
    (match Governor.observe t.gov ~burn with
    | Governor.Steady -> ()
    | Governor.Degraded (_, s) | Governor.Restored (_, s) ->
      let cfg = Governor.checker_config s ~base:(Checker.config core.checker) in
      Checker.set_config core.checker cfg;
      (* The candidate must be judged under the rung the enforced checker
         runs at, or every degradation would show up as spurious
         stricter/looser skew. *)
      match core.shadow with
      | Some sh -> Checker.set_config sh.s_checker cfg
      | None -> ());
    let _events = Remedy.tick core.remedy in
    (match core.shadow with
    | Some sh ->
      (* Candidate anomalies are advisory: drain them (bounded memory)
         and record the ticks with looser verdicts — the first of them is
         the rollout's deterministic rollback-latency clock. *)
      ignore (Checker.drain_anomalies sh.s_checker : Checker.anomaly list);
      if sh.s_tick_looser > 0 then
        sh.s_looser_rev <- (t.ticks, sh.s_tick_looser) :: sh.s_looser_rev
    | None -> ());
    let halted = Vmm.Machine.halted core.machine in
    if halted then t.halt_ticks <- t.halt_ticks + 1;
    let line =
      Printf.sprintf
        "t%04d %s burn=%d halted=%b warns=%d p=%d i=%d c=%d x=%d crash=%d \
         rb=%d cov=%d/%d"
        t.ticks
        (Governor.state_to_string (Governor.state t.gov))
        (Governor.burn_in_window t.gov)
        halted warns !p !i !c !x !crash
        (Remedy.rollbacks core.remedy)
        (Checker.coverage_node_count core.coverage)
        (Checker.coverage_edge_count core.coverage)
    in
    (* Shadow-less streams keep their exact historical bytes: the
       isolation oracle compares them across runs. *)
    let line =
      match core.shadow with
      | None -> line
      | Some sh ->
        Printf.sprintf "%s sh=%d/%d/%d" line sh.s_tick_agree
          sh.s_tick_stricter sh.s_tick_looser
    in
    t.stream.(t.stream_lines mod stream_keep) <- line;
    t.stream_lines <- t.stream_lines + 1;
    t.stream_crc <- Sedspec_util.Crc.update (Sedspec_util.Crc.update t.stream_crc line) "\n"

type shadow_report = {
  sh_revision : int;
  sh_provenance : string;
  sh_agree : int;
  sh_stricter : int;
  sh_looser : int;
  sh_first_looser_tick : int option;
  sh_looser_ticks : (int * int) list;
  sh_sites : (string * (int * int * int)) list;
}

type report = {
  r_vm : int;
  r_device : string;
  r_status : string;
  r_state : Governor.state;
  r_degrades : int;
  r_restores : int;
  r_burn : int;
  r_interactions : int;
  r_anoms_param : int;
  r_anoms_indirect : int;
  r_anoms_cond : int;
  r_anoms_internal : int;
  r_internal_errors : int;
  r_deadline_overruns : int;
  r_crashes : int;
  r_halt_ticks : int;
  r_warns : int;
  r_rollbacks : int;
  r_breaker_tripped : bool;
  r_halted_final : bool;
  r_heals : int;
  r_build_attempts : int;
  r_build_fallback : bool;
  r_backoff_delay : int;
  r_cov_nodes : int;
  r_cov_edges : int;
  r_guard : (int * int) option;
      (** [(drained_anomalies, internal_errors)] when the guard ran. *)
  r_shadow : shadow_report option;
  r_arena : Sedspec.Compile.t option;
  r_stream : string list;
  r_stream_lines : int;
  r_stream_crc : int32;
}

let report t =
  let status =
    match t.core with
    | Some _ -> "ok"
    | None -> "failed: " ^ t.fail_reason
  in
  let interactions, internal_errors, overruns, rollbacks, tripped, halted,
      heals, cov_nodes, cov_edges =
    match t.core with
    | None -> (0, 0, 0, 0, false, false, 0, 0, 0)
    | Some core ->
      let stats = Checker.stats core.checker in
      let snap = Remedy.snapshot core.remedy in
      ( stats.Checker.interactions,
        Checker.internal_errors core.checker,
        Checker.deadline_overruns core.checker,
        snap.Remedy.s_rollbacks,
        snap.Remedy.s_breaker_tripped,
        snap.Remedy.s_halted,
        Checker.heals core.checker,
        Checker.coverage_node_count core.coverage,
        Checker.coverage_edge_count core.coverage )
  in
  {
    r_vm = t.index;
    r_device = t.opts.device;
    r_status = status;
    r_state = Governor.state t.gov;
    r_degrades = Governor.degrades t.gov;
    r_restores = Governor.restores t.gov;
    r_burn = Governor.burn_in_window t.gov;
    r_interactions = interactions;
    r_anoms_param = t.anoms_param;
    r_anoms_indirect = t.anoms_indirect;
    r_anoms_cond = t.anoms_cond;
    r_anoms_internal = t.anoms_internal;
    r_internal_errors = internal_errors;
    r_deadline_overruns = overruns;
    r_crashes = t.crashes;
    r_halt_ticks = t.halt_ticks;
    r_warns = t.warns;
    r_rollbacks = rollbacks;
    r_breaker_tripped = tripped;
    r_halted_final = halted;
    r_heals = heals;
    r_build_attempts = t.build_attempts;
    r_build_fallback = t.build_fallback;
    r_backoff_delay = t.backoff_delay;
    r_cov_nodes = cov_nodes;
    r_cov_edges = cov_edges;
    r_guard =
      (match t.core with
      | Some { validator = Some v; guard_drained; _ } ->
        Some (!guard_drained, Guard.Validator.internal_errors v)
      | _ -> None);
    r_shadow =
      (match t.core with
      | Some { shadow = Some sh; _ } ->
        let looser_ticks = List.rev sh.s_looser_rev in
        Some
          {
            sh_revision = sh.s_revision;
            sh_provenance = sh.s_provenance;
            sh_agree = sh.s_agree;
            sh_stricter = sh.s_stricter;
            sh_looser = sh.s_looser;
            sh_first_looser_tick =
              (match looser_ticks with (tick, _) :: _ -> Some tick | [] -> None);
            sh_looser_ticks = looser_ticks;
            sh_sites =
              List.sort compare
                (Hashtbl.fold
                   (fun k s acc -> (k, (s.agree, s.stricter, s.looser)) :: acc)
                   sh.s_sites []);
          }
      | _ -> None);
    r_arena =
      (* Only cache-built specs carry a shareable arena claim: fallback
         rebuilds and persisted loads own private arenas by design. *)
      (if t.build_fallback then None
       else
         match t.core with
         | Some core when t.opts.spec_origin = Trained ->
           Checker.compiled_arena core.checker
         | _ -> None);
    r_stream =
      (let kept = min t.stream_lines stream_keep in
       List.init kept (fun i -> t.stream.((t.stream_lines - kept + i) mod stream_keep)));
    r_stream_lines = t.stream_lines;
    r_stream_crc = t.stream_crc;
  }
