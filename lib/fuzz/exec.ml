(* Differential execution of fuzzer inputs.

   Every input replays under pairs of checker configurations (a
   [profile]); the production profiles pit the compiled walk engine
   against the interpreted reference in both working modes.  Everything
   observable about a replay is folded into an [obs] record of strings,
   and any field-wise difference between the two sides of a profile is a
   divergence — by construction the two engines are bit-for-bit
   equivalent, so a surviving divergence is a checker bug. *)

module C = Sedspec.Checker

type profile = {
  pname : string;
  left : C.config;
  right : C.config;
  left_version : Devices.Qemu_version.t option;
      (** Replay the left side at this device version instead of the
          input's own — the cross-version (deviation-locator) seam. *)
  right_version : Devices.Qemu_version.t option;
  lenient : bool;
      (** Mask walk-internal observables (stats, node/edge coverage) that
          legitimately differ across specs; verdict-level fields are
          always compared. *)
}

let profile ~mode ~pname =
  {
    pname;
    left = { C.default_config with C.mode; engine = C.Compiled };
    right = { C.default_config with C.mode; engine = C.Interpreted };
    left_version = None;
    right_version = None;
    lenient = false;
  }

let default_profiles =
  [
    profile ~mode:C.Protection ~pname:"protection";
    profile ~mode:C.Enhancement ~pname:"enhancement";
  ]

(* Cross-version oracles: the same engine and mode on both sides, but
   the device model (and the spec trained on it) at the CVE's vulnerable
   version on the left and its first patched version on the right.  A
   field difference here is not a checker bug — it is a behavioural
   deviation between adjacent device versions, the raw material of the
   deviation locator.  Lenient: walk statistics and
   coverage legitimately differ across versions (the specs are trained on
   different models); verdict-level fields — I/O results, anomalies,
   warnings, halts, shadow bytes, crashes — are always compared. *)
let cross_version_profiles ~vuln ~patched =
  List.map
    (fun (mode, mname) ->
      {
        pname = Printf.sprintf "xver-%s" mname;
        left = { C.default_config with C.mode; engine = C.Compiled };
        right = { C.default_config with C.mode; engine = C.Compiled };
        left_version = Some vuln;
        right_version = Some patched;
        lenient = true;
      })
    [ (C.Protection, "protection"); (C.Enhancement, "enhancement") ]

(* --- Machine factory --------------------------------------------------- *)

(* [W.make_machine] rebuilds the whole device program per call; at fuzzing
   throughput that dominates, so share one [Devices.Device.t] (immutable
   program) per (device, version) and mint only fresh arenas. *)

let device_cache : (string * string, Devices.Device.t) Hashtbl.t =
  Hashtbl.create 8

let device_lock = Mutex.create ()

let cached_device ~device ~version =
  let key = (device, Devices.Qemu_version.to_string version) in
  let finally () = Mutex.unlock device_lock in
  Mutex.lock device_lock;
  Fun.protect ~finally (fun () ->
      match Hashtbl.find_opt device_cache key with
      | Some d -> d
      | None ->
        let d =
          match Workload.Samples.find_opt device with
          | Some (module W) -> W.device version
          | None -> invalid_arg ("Fuzz.Exec: unknown device " ^ device)
        in
        Hashtbl.replace device_cache key d;
        d)

(* Replay contexts (machine + attached checker) are pooled and recycled:
   checker creation re-derives copy spans and the pass-through map, and
   the compiled engine lowers the spec lazily per checker instance — at
   fuzzing throughput, minting all of that per replay dominated the run
   (and the allocation churn kept the major GC walking the multi-MB spec
   cache).  A recycled context goes back to boot state through
   [Vmm.Machine.reboot] and [Checker.reset]. *)

type rctx = { rx_machine : Vmm.Machine.t; rx_checker : C.t }

let config_key (c : C.config) =
  Printf.sprintf "%s|%s|%d|%s"
    (String.concat "+" (List.map C.strategy_to_string c.C.strategies))
    (match c.C.mode with C.Protection -> "prot" | C.Enhancement -> "enh")
    c.C.walk_limit
    (match c.C.engine with C.Compiled -> "compiled" | C.Interpreted -> "interp")

let ctx_pool : (string, rctx list ref) Hashtbl.t = Hashtbl.create 16
let ctx_lock = Mutex.create ()

let make_rctx ~config ~version (input : Input.t) =
  let w = Workload.Samples.find input.device in
  let b = Metrics.Spec_cache.built w version in
  let dev = cached_device ~device:input.device ~version in
  (* 1 MiB of RAM, not the 16 MiB default: every guest address the
     workloads, attacks and mutator touch sits below 0xA0000. *)
  let m = Vmm.Machine.create ~ram_size:0x100000 ~vmexit_cost:0 () in
  Vmm.Machine.attach m (dev.Devices.Device.make_binding ());
  let checker = Sedspec.Pipeline.protect ~config m ~device:input.device b in
  { rx_machine = m; rx_checker = checker }

let with_rctx ~config ~version (input : Input.t) f =
  let key =
    Printf.sprintf "%s|%s|%s" input.device
      (Devices.Qemu_version.to_string version)
      (config_key config)
  in
  let acquire () =
    Mutex.lock ctx_lock;
    let r =
      match Hashtbl.find_opt ctx_pool key with
      | Some ({ contents = rctx :: rest } as slot) ->
        slot := rest;
        Some rctx
      | _ -> None
    in
    Mutex.unlock ctx_lock;
    match r with
    | Some rctx ->
      Vmm.Machine.reboot rctx.rx_machine ~device:input.device;
      C.reset rctx.rx_checker;
      rctx
    | None -> make_rctx ~config ~version input
  in
  let release rctx =
    Mutex.lock ctx_lock;
    (match Hashtbl.find_opt ctx_pool key with
    | Some slot -> slot := rctx :: !slot
    | None -> Hashtbl.replace ctx_pool key (ref [ rctx ]));
    Mutex.unlock ctx_lock
  in
  let rctx = acquire () in
  Fun.protect ~finally:(fun () -> release rctx) (fun () -> f rctx)

(* --- One replay -------------------------------------------------------- *)

type obs = {
  o_steps : string list;  (** Per-step I/O result summaries, in order. *)
  o_anomalies : string list;
  o_warnings : string list;
  o_halted_at : int option;  (** Step index at which the VM halted. *)
  o_halt_reason : string;
  o_stats : string;
  o_shadow : string;  (** Shadow-arena bytes, hex. *)
  o_nodes : string list;  (** Covered ES-CFG nodes, sorted. *)
  o_edges : string list;
  o_crash : string option;  (** Host-level exception out of a step. *)
}

let anomaly_repr (a : C.anomaly) =
  Printf.sprintf "%s|%s|%b|%s"
    (C.strategy_to_string a.strategy)
    (match a.at with
    | Some b -> Devir.Program.bref_to_string b
    | None -> "-")
    a.pre_execution a.detail

let stats_repr (s : C.stats) =
  Printf.sprintf "interactions=%d walks_ok=%d bails=%d deferred=%d nodes_walked=%d"
    s.interactions s.walks_ok s.bails s.deferred s.nodes_walked

let shadow_repr checker =
  let b = C.shadow_snapshot checker in
  let h = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string h (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents h

let io_result_repr : Vmm.Machine.io_result -> string = function
  | Vmm.Machine.Io_ok None -> "ok"
  | Io_ok (Some v) -> Printf.sprintf "ok:0x%Lx" v
  | Io_blocked reason -> "blocked:" ^ reason
  | Io_fault trap -> "fault:" ^ Interp.Event.trap_to_string trap
  | Io_no_device -> "no-device"
  | Io_vm_halted -> "vm-halted"

let edge_repr (a, b) =
  Devir.Program.bref_to_string a ^ "->" ^ Devir.Program.bref_to_string b

(* Response faults accumulate field-wise into one armed record on the
   input's device interp: each rf step replaces its own seam and "rf
   clear" disarms them all.  The pure manglers come from Faultinj.Inject,
   so corpus-scheduled response faults and the hostile campaign's replays
   explore one shape space.  Applied inside the interpreter, the mangled
   responses reach both walk engines identically — fault-bearing inputs
   still satisfy the differential oracle. *)
let apply_resp_fault interp resp = function
  | Input.F_resp_read mask ->
    resp :=
      { !resp with Interp.rf_read = Some (Faultinj.Inject.corrupt_value ~mask) };
    Interp.set_response_fault interp (Some !resp)
  | Input.F_resp_store mask ->
    resp :=
      { !resp with Interp.rf_store = Some (Faultinj.Inject.corrupt_value ~mask) };
    Interp.set_response_fault interp (Some !resp)
  | Input.F_resp_dma delta ->
    resp :=
      { !resp with Interp.rf_dma_len = Some (Faultinj.Inject.dma_len_delta ~delta) };
    Interp.set_response_fault interp (Some !resp)
  | Input.F_resp_irq burst ->
    resp := { !resp with Interp.rf_irq_burst = burst };
    Interp.set_response_fault interp (Some !resp)
  | Input.F_resp_clear ->
    resp := Interp.no_response_fault;
    Interp.set_response_fault interp None
  | _ -> ()

(* Replay [input] under one checker configuration.  Replay stops at the
   first interposer halt (subsequent dispatches would only observe the
   halted VM) and at the first host-level exception, which is recorded as
   a crash rather than propagated: a crashing replay is a finding, not a
   fuzzer failure. *)
let run ~config ?version (input : Input.t) =
  let version = Option.value version ~default:input.version in
  with_rctx ~config ~version input
  @@ fun { rx_machine = m; rx_checker = checker } ->
  let cov = C.coverage_create () in
  C.set_coverage checker (Some cov);
  let dev_interp = Vmm.Machine.interp_of m input.device in
  let resp = ref Interp.no_response_fault in
  let ram = Vmm.Machine.ram m in
  let steps_rev = ref [] in
  let halted_at = ref None in
  let crash = ref None in
  (try
     Array.iteri
       (fun i step ->
         match step with
         | Input.Guest_write { addr; data } ->
           Vmm.Guest_mem.blit_in ram addr (Bytes.of_string data)
         | Input.Fault f -> (
           (* Pure address-keyed guest faults and top-of-walk hooks fire
              identically under both engines, so a fault-bearing input
              still satisfies the differential oracle. *)
           match f with
           | Input.F_guest_xor mask ->
             Vmm.Guest_mem.set_read_fault ram
               (Some (Faultinj.Inject.corrupt_byte ~mask))
           | Input.F_guest_short limit ->
             Vmm.Guest_mem.set_read_fault ram
               (Some (Faultinj.Inject.short_byte ~limit))
           | Input.F_guest_clear -> Vmm.Guest_mem.set_read_fault ram None
           | Input.F_walk_raise ->
             let live = ref true in
             C.set_fault_hook checker
               (Some
                  (fun () ->
                    if !live then begin
                      live := false;
                      raise (Faultinj.Plan.Injected "fuzz fault step")
                    end))
           | Input.F_walk_delay spin ->
             let live = ref true in
             C.set_fault_hook checker
               (Some
                  (fun () ->
                    if !live then begin
                      live := false;
                      Faultinj.Inject.burn spin
                    end))
           | Input.F_resp_read _ | Input.F_resp_store _ | Input.F_resp_dma _
           | Input.F_resp_irq _ | Input.F_resp_clear ->
             apply_resp_fault dev_interp resp f)
         | Input.Req { handler; params } -> (
           (match Vmm.Machine.inject m ~device:input.device ~handler ~params with
           | r -> steps_rev := io_result_repr r :: !steps_rev
           | exception e ->
             crash := Some (Printexc.to_string e);
             raise Exit);
           if Vmm.Machine.halted m then begin
             halted_at := Some i;
             raise Exit
           end))
       input.steps
   with Exit -> ());
  C.set_coverage checker None;
  Vmm.Guest_mem.set_read_fault ram None;
  Interp.set_response_fault dev_interp None;
  C.set_fault_hook checker None;
  let obs =
    {
      o_steps = List.rev !steps_rev;
      o_anomalies = List.map anomaly_repr (C.anomalies checker);
      o_warnings = Vmm.Machine.warnings m;
      o_halted_at = !halted_at;
      o_halt_reason = Option.value ~default:"" (Vmm.Machine.halt_reason m);
      o_stats = stats_repr (C.stats checker);
      o_shadow = shadow_repr checker;
      o_nodes = List.map Devir.Program.bref_to_string (C.coverage_nodes cov);
      o_edges = List.map edge_repr (C.coverage_edges cov);
      o_crash = !crash;
    }
  in
  (obs, cov)

(* Device-level execution trace: replay the input on an *unprotected*
   machine and collect the devir IR blocks the device itself executes
   (every [on_block] firing, plus consecutive-pair edges across the whole
   replay).  The spec-walk coverage above can only ever name trained
   blocks — a patch that adds a rejection path off the benign corpus is
   invisible to it — so the deviation locator attributes divergences
   against this ground-level trace instead.  Walk faults are checker
   effects and are skipped; guest faults apply as in [run]. *)
let trace ?version (input : Input.t) =
  let version = Option.value version ~default:input.version in
  let dev = cached_device ~device:input.device ~version in
  let m = Vmm.Machine.create ~ram_size:0x100000 ~vmexit_cost:0 () in
  Vmm.Machine.attach m (dev.Devices.Device.make_binding ());
  let interp = Vmm.Machine.interp_of m input.device in
  let nodes : (Devir.Program.bref, int) Hashtbl.t = Hashtbl.create 64 in
  let edges = Hashtbl.create 64 in
  let last = ref None in
  let hooks = Interp.hooks interp in
  Interp.set_hooks interp
    {
      hooks with
      Interp.on_block =
        (fun bref kind ->
          Hashtbl.replace nodes bref
            (1 + Option.value ~default:0 (Hashtbl.find_opt nodes bref));
          (match !last with
          | Some prev -> Hashtbl.replace edges (prev, bref) ()
          | None -> ());
          last := Some bref;
          hooks.Interp.on_block bref kind);
    };
  let ram = Vmm.Machine.ram m in
  let resp = ref Interp.no_response_fault in
  (try
     Array.iter
       (fun step ->
         match step with
         | Input.Guest_write { addr; data } ->
           Vmm.Guest_mem.blit_in ram addr (Bytes.of_string data)
         | Input.Fault f -> (
           match f with
           | Input.F_guest_xor mask ->
             Vmm.Guest_mem.set_read_fault ram
               (Some (Faultinj.Inject.corrupt_byte ~mask))
           | Input.F_guest_short limit ->
             Vmm.Guest_mem.set_read_fault ram
               (Some (Faultinj.Inject.short_byte ~limit))
           | Input.F_guest_clear -> Vmm.Guest_mem.set_read_fault ram None
           | Input.F_walk_raise | Input.F_walk_delay _ -> ()
           | Input.F_resp_read _ | Input.F_resp_store _ | Input.F_resp_dma _
           | Input.F_resp_irq _ | Input.F_resp_clear ->
             (* Response faults are device-model effects: they belong in
                the ground-level trace exactly as in protected replays. *)
             apply_resp_fault interp resp f)
         | Input.Req { handler; params } -> (
           match Vmm.Machine.inject m ~device:input.device ~handler ~params with
           | _ -> if Vmm.Machine.halted m then raise Exit
           | exception _ -> raise Exit))
       input.steps
   with Exit -> ());
  ( List.sort
      (fun (a, _) (b, _) -> Devir.Program.bref_compare a b)
      (Hashtbl.fold (fun k n acc -> (k, n) :: acc) nodes []),
    List.sort
      (fun (a1, a2) (b1, b2) ->
        match Devir.Program.bref_compare a1 b1 with
        | 0 -> Devir.Program.bref_compare a2 b2
        | c -> c)
      (Hashtbl.fold (fun k () acc -> k :: acc) edges []) )

(* --- Comparison -------------------------------------------------------- *)

type divergence = { d_profile : string; d_field : string; d_detail : string }

let diff_list field l r =
  if l <> r then
    let describe l =
      Printf.sprintf "%d entries [%s]" (List.length l)
        (String.concat "; " (List.filteri (fun i _ -> i < 4) l))
    in
    Some (field, Printf.sprintf "left %s vs right %s" (describe l) (describe r))
  else None

let compare_obs ?(lenient = false) l r =
  List.filter_map Fun.id
    [
      diff_list "step-results" l.o_steps r.o_steps;
      diff_list "anomalies" l.o_anomalies r.o_anomalies;
      diff_list "warnings" l.o_warnings r.o_warnings;
      (if l.o_halted_at <> r.o_halted_at || l.o_halt_reason <> r.o_halt_reason
       then
         let h = function
           | None, _ -> "ran to completion"
           | Some i, reason -> Printf.sprintf "halted at step %d (%s)" i reason
         in
         Some
           ( "halt",
             Printf.sprintf "left %s vs right %s"
               (h (l.o_halted_at, l.o_halt_reason))
               (h (r.o_halted_at, r.o_halt_reason)) )
       else None);
      (if (not lenient) && l.o_stats <> r.o_stats then
         Some ("stats", Printf.sprintf "left %s vs right %s" l.o_stats r.o_stats)
       else None);
      (if l.o_shadow <> r.o_shadow then
         Some ("shadow", "shadow-arena bytes differ")
       else None);
      (if lenient then None else diff_list "coverage-nodes" l.o_nodes r.o_nodes);
      (if lenient then None else diff_list "coverage-edges" l.o_edges r.o_edges);
      (if l.o_crash <> r.o_crash then
         let c = function None -> "no crash" | Some e -> "crash " ^ e in
         Some
           ( "crash",
             Printf.sprintf "left %s vs right %s" (c l.o_crash) (c r.o_crash) )
       else None);
    ]

type outcome = {
  divergences : divergence list;
  crashed : string option;  (** First crash seen under any configuration. *)
  anomalous : bool;  (** The canonical run tripped the checker. *)
  coverage : C.coverage;
      (** Union over every profile run.  Enhancement-mode runs keep walking
          past warn-only anomalies, so they explore paths the protection
          run's halt cuts short — folding them in gives the mutator richer
          feedback at no extra replay cost. *)
}

let evaluate ?(profiles = default_profiles) (input : Input.t) =
  if profiles = [] then invalid_arg "Fuzz.Exec.evaluate: no profiles";
  let canonical = ref None in
  let crashed = ref None in
  let coverage = C.coverage_create () in
  let divergences =
    List.concat_map
      (fun p ->
        let l, lcov = run ~config:p.left ?version:p.left_version input in
        let r, rcov = run ~config:p.right ?version:p.right_version input in
        ignore (C.coverage_absorb ~into:coverage lcov);
        ignore (C.coverage_absorb ~into:coverage rcov);
        if !canonical = None then canonical := Some l;
        (match (l.o_crash, r.o_crash) with
        | Some e, _ | _, Some e -> if !crashed = None then crashed := Some e
        | None, None -> ());
        List.map
          (fun (field, detail) ->
            { d_profile = p.pname; d_field = field; d_detail = detail })
          (compare_obs ~lenient:p.lenient l r))
      profiles
  in
  let canon = Option.get !canonical in
  {
    divergences;
    crashed = !crashed;
    anomalous =
      canon.o_anomalies <> [] || canon.o_warnings <> []
      || canon.o_halted_at <> None;
    coverage;
  }
