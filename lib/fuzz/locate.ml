(* Cross-version deviation locator (see .mli). *)

module P = Devir.Program
module C = Sedspec.Checker

type options = {
  device : string option;
  cve : string option;
  budget : int;
  seed : int64;
  jobs : int;
  max_steps : int;
}

let default_options =
  {
    device = None;
    cve = None;
    budget = 128;
    seed = 0L;
    jobs = 1;
    max_steps = 48;
  }

let targets (opts : options) =
  List.filter
    (fun (a : Attacks.Attack.t) ->
      (match opts.device with
      | None -> true
      | Some d -> a.Attacks.Attack.device = d)
      &&
      match opts.cve with None -> true | Some c -> a.Attacks.Attack.cve = c)
    Attacks.Attack.all

(* Each CVE's loop seed depends only on the master seed and the CVE id
   (FNV-1a mix), never on catalogue position, so [--cve] filtering does
   not perturb the remaining deltas. *)
let sub_seed ~seed cve =
  String.fold_left
    (fun acc c ->
      Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001b3L)
    (Int64.logxor seed 0xcbf29ce484222325L)
    cve

(* Anomaly sites back out of their report form
   "strategy|handler/label|pre|detail" (see [Exec.anomaly_repr]); the
   detail is last, so the site field splits off safely. *)
let anomaly_sites (o : Exec.obs) =
  List.filter_map
    (fun s ->
      match String.split_on_char '|' s with
      | _ :: at :: _ when at <> "-" -> (
          match String.index_opt at '/' with
          | Some i ->
              Some
                {
                  P.handler = String.sub at 0 i;
                  label = String.sub at (i + 1) (String.length at - i - 1);
                }
          | None -> None)
      | _ -> None)
    o.Exec.o_anomalies

(* The generic seed corpus truncates attack recordings to a short prefix
   (coverage headroom for the cross-engine fuzzer), which routinely cuts
   an exploit off before its trigger — e.g. the sdhci PoC spends ~500
   steps in benign setup.  The locator wants the opposite: the full
   exploit stream is the one input guaranteed to straddle the version
   boundary, so record it uncut (bounded only by a generous cap) and
   hand it to the loop as an extra seed; ddmin shrinks whatever
   diverges. *)
let exploit_seed_cap = 1024

let exploit_seed (a : Attacks.Attack.t) =
  let w = Workload.Samples.find a.Attacks.Attack.device in
  let module W = (val w : Workload.Samples.DEVICE_WORKLOAD) in
  let m = W.make_machine a.Attacks.Attack.qemu_version in
  let steps =
    Input.record m ~device:a.Attacks.Attack.device (fun () ->
        try
          a.Attacks.Attack.setup m;
          a.Attacks.Attack.run m
        with _ -> ())
  in
  let steps =
    if Array.length steps > exploit_seed_cap then
      Array.sub steps 0 exploit_seed_cap
    else steps
  in
  {
    Input.device = a.Attacks.Attack.device;
    version = a.Attacks.Attack.qemu_version;
    origin = Input.Attack a.Attacks.Attack.cve;
    steps;
  }

(* Version-pair attribution context: both device programs and their
   dependence graphs, built once per CVE. *)
type ctx = {
  x_vuln : Devices.Qemu_version.t;
  x_patched : Devices.Qemu_version.t;
  x_prog_v : Devir.Program.t;
  x_prog_p : Devir.Program.t;
  x_graph_v : Sedspec.Depgraph.t;
  x_graph_p : Sedspec.Depgraph.t;
}

(* Device-trace attribution of one input across the version pair.  Three
   signals, unioned:

   - set view: block/edge symmetric difference of the two traces —
     rewired control flow;
   - count view: blocks executed a different number of times — a
     re-bounded loop runs the same block set, just not as often;
   - data view: a one-step DDG back-slice from each implicated block's
     branch variables to their executed definition sites, in both
     programs.  A value-only patch (same label, same successors, one
     constant changed — e.g. Venom's [data_len] initialiser) is
     invisible to both set and count views at the patched block itself;
     it only manifests downstream, at the branch the changed value
     steers, and the slice walks back from there. *)
let trace_attrib ctx (input : Input.t) =
  let counts_l, edges_l = Exec.trace ~version:ctx.x_vuln input
  and counts_r, edges_r = Exec.trace ~version:ctx.x_patched input in
  let nodes_l = List.map fst counts_l and nodes_r = List.map fst counts_r in
  let implicated =
    List.sort_uniq P.bref_compare
      (Sedspec.Attrib.divergence_blocks ~left_nodes:nodes_l ~left_edges:edges_l
         ~right_nodes:nodes_r ~right_edges:edges_r ()
      @ Sedspec.Attrib.count_diff counts_l counts_r)
  in
  let executed = List.sort_uniq P.bref_compare (nodes_l @ nodes_r) in
  let slice =
    Sedspec.Attrib.data_slice ctx.x_graph_v ctx.x_prog_v ~executed implicated
    @ Sedspec.Attrib.data_slice ctx.x_graph_p ctx.x_prog_p ~executed implicated
  in
  List.sort_uniq P.bref_compare (implicated @ slice)

(* Deterministic directed probes derived from a minimized witness: sweep
   each request parameter through a fixed value ladder and trace-diff
   every variant.  A patch frequently splits one vulnerable block into a
   guard plus two arms (clamp oversize / accept in-range); the exploit
   only ever exercises the clamp arm, so the accept arm — a block that
   exists only in the patched program — never shows up in any diverging
   replay.  Sweeping the witness's own parameters walks the same code
   path at other magnitudes and lights up the sibling arm. *)
let sweep_values =
  [
    0L;
    1L;
    2L;
    8L;
    255L;
    1024L;
    1536L;
    4096L;
    65535L;
    0xFFFFFFFFL;
    Int64.max_int;
  ]

let witness_probes (input : Input.t) =
  List.concat
    (List.mapi
       (fun i step ->
         match step with
         | Input.Req { handler; params } when params <> [] ->
           List.concat_map
             (fun (k, _) ->
               List.filter_map
                 (fun v ->
                   let params' =
                     List.map
                       (fun (k', v') -> if k' = k then (k', v) else (k', v'))
                       params
                   in
                   if params' = params then None
                   else
                     Some
                       {
                         input with
                         Input.steps =
                           Array.mapi
                             (fun j st ->
                               if j = i then
                                 Input.Req { handler; params = params' }
                               else st)
                             input.Input.steps;
                       })
                 sweep_values)
             params
         | _ -> [])
       (Array.to_list input.Input.steps))

(* Replay a minimized witness once per side of its profile and attribute
   the divergence to IR blocks.  Two views, unioned:

   - the spec-walk view (checker coverage symmetric difference plus
     one-side-only anomaly sites) — precise about *where the checker's
     verdict changed*, but blind to blocks outside the trained spec;
   - the device-trace view ({!trace_attrib}, no checker) — sees every
     block the device itself executes, including patched rejection
     paths the benign training corpus never reaches. *)
let attribute ~profiles ~ctx (f : Loop.finding) =
  let p =
    List.find
      (fun (p : Exec.profile) -> p.Exec.pname = f.Loop.f_profile)
      profiles
  in
  let obs_l, cov_l =
    Exec.run ~config:p.Exec.left ?version:p.Exec.left_version f.Loop.f_input
  in
  let obs_r, cov_r =
    Exec.run ~config:p.Exec.right ?version:p.Exec.right_version f.Loop.f_input
  in
  let spec_blocks =
    Sedspec.Attrib.divergence_blocks
      ~left_nodes:(C.coverage_nodes cov_l)
      ~left_edges:(C.coverage_edges cov_l)
      ~right_nodes:(C.coverage_nodes cov_r)
      ~right_edges:(C.coverage_edges cov_r)
      ~left_sites:(anomaly_sites obs_l) ~right_sites:(anomaly_sites obs_r) ()
  in
  let trace_blocks = trace_attrib ctx f.Loop.f_input in
  let blocks =
    List.sort_uniq P.bref_compare (spec_blocks @ trace_blocks)
  in
  {
    Delta.w_profile = f.Loop.f_profile;
    w_field = f.Loop.f_field;
    w_detail = f.Loop.f_detail;
    w_original_len = f.Loop.f_original_len;
    w_input = f.Loop.f_input;
    w_blocks = blocks;
    w_roots = Sedspec.Attrib.roots ctx.x_graph_p blocks;
  }

(* Group witness indices by identical root set, first-seen order. *)
let clusters witnesses =
  let acc = ref [] in
  List.iteri
    (fun i (w : Delta.witness) ->
      let key = w.Delta.w_roots in
      if List.mem_assoc key !acc then
        acc :=
          List.map
            (fun (k, v) -> if k = key then (k, v @ [ i ]) else (k, v))
            !acc
      else acc := !acc @ [ (key, [ i ]) ])
    witnesses;
  !acc

(* The loop keeps one finding per (profile, field) across the whole
   corpus, so a benign seed that diverges first can claim a key away
   from the exploit stream — and the exploit is the one input that
   provably straddles the patch.  Guarantee its witnesses: evaluate the
   exploit seed directly and ddmin every distinct (profile, field)
   divergence it shows, reusing the loop's shrink when the loop's
   finding already came from this very seed. *)
let exploit_findings ~profiles (a : Attacks.Attack.t) seed
    (loop_findings : Loop.finding list) =
  let o = Exec.evaluate ~profiles seed in
  let seed_len = Array.length seed.Input.steps in
  let from_exploit (f : Loop.finding) =
    f.Loop.f_original_len = seed_len
    && f.Loop.f_input.Input.origin = Input.Attack a.Attacks.Attack.cve
  in
  let seen = Hashtbl.create 8 in
  let findings =
    List.filter_map
      (fun (d : Exec.divergence) ->
        let key = (d.Exec.d_profile, d.Exec.d_field) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          match
            List.find_opt
              (fun (f : Loop.finding) ->
                f.Loop.f_profile = d.Exec.d_profile
                && f.Loop.f_field = d.Exec.d_field
                && from_exploit f)
              loop_findings
          with
          | Some f -> Some f
          | None ->
            let p =
              List.find
                (fun (p : Exec.profile) -> p.Exec.pname = d.Exec.d_profile)
                profiles
            in
            let interesting steps =
              let o = Exec.evaluate ~profiles:[ p ] { seed with Input.steps } in
              List.exists
                (fun (d' : Exec.divergence) ->
                  d'.Exec.d_profile = d.Exec.d_profile
                  && d'.Exec.d_field = d.Exec.d_field)
                o.Exec.divergences
            in
            let steps =
              Loop.ddmin ~test:interesting seed.Input.steps
            in
            Some
              {
                Loop.f_profile = d.Exec.d_profile;
                f_field = d.Exec.d_field;
                f_detail = d.Exec.d_detail;
                f_original_len = seed_len;
                f_input = { seed with Input.steps };
              }
        end)
      o.Exec.divergences
  in
  (findings, from_exploit)

let locate_cve (opts : options) (a : Attacks.Attack.t) =
  let vuln, patched = Attacks.Attack.version_pair a in
  let profiles = Exec.cross_version_profiles ~vuln ~patched in
  let exploit = exploit_seed a in
  let loop_opts =
    {
      (Loop.default_options ~device:a.Attacks.Attack.device) with
      Loop.seed = sub_seed ~seed:opts.seed a.Attacks.Attack.cve;
      budget = opts.budget;
      jobs = opts.jobs;
      max_steps = opts.max_steps;
      profiles;
      extra_seeds = [ exploit ];
    }
  in
  let r = Loop.run loop_opts in
  let dev_v =
    Exec.device_model ~device:a.Attacks.Attack.device ~version:vuln
  and dev_p =
    Exec.device_model ~device:a.Attacks.Attack.device ~version:patched
  in
  (* Roots are computed in the patched program: an added decision block
     exists only there, and attribution should name what the fix looks
     like now. *)
  let ctx =
    {
      x_vuln = vuln;
      x_patched = patched;
      x_prog_v = dev_v.Devices.Device.program;
      x_prog_p = dev_p.Devices.Device.program;
      x_graph_v = Sedspec.Depgraph.build dev_v.Devices.Device.program;
      x_graph_p = Sedspec.Depgraph.build dev_p.Devices.Device.program;
    }
  in
  let from_seed, from_exploit =
    exploit_findings ~profiles a exploit r.Loop.r_findings
  in
  (* Exploit witnesses first, then the loop's remaining findings —
     fuzzer-discovered candidates on other inputs.  A loop finding that
     is itself an exploit-seed finding is already in [from_seed]. *)
  let keyed fs (f : Loop.finding) =
    List.exists
      (fun (g : Loop.finding) ->
        g.Loop.f_profile = f.Loop.f_profile && g.Loop.f_field = f.Loop.f_field)
      fs
  in
  let findings =
    from_seed
    @ List.filter
        (fun f -> not (from_exploit f && keyed from_seed f))
        r.Loop.r_findings
  in
  let witnesses = List.map (attribute ~profiles ~ctx) findings in
  (* The changed set also folds in the *full* exploit stream's trace
     diff: ddmin keeps one (profile, field) signature per witness, so a
     secondary deviation path (e.g. the receive half of a tx/rx patch)
     can be minimized away from every witness while the uncut exploit
     still exercises it on both sides. *)
  let exploit_trace_diff = trace_attrib ctx exploit in
  (* Benign-corpus sweep: the generic seed corpus exercises code the
     exploit never touches (e.g. the receive half of a tx/rx patch), and
     a patched-only block on a benign path shows up as a trace diff even
     though no oracle field diverges.  Identical traces contribute
     nothing, so clean seeds add no noise. *)
  let corpus_diff =
    List.concat_map (trace_attrib ctx)
      (Input.seed_corpus ~device:a.Attacks.Attack.device)
  in
  (* Directed probes: parameter sweeps over each distinct minimized
     witness (see [witness_probes]). *)
  let probe_diff =
    let distinct =
      List.sort_uniq compare
        (List.map (fun (w : Delta.witness) -> w.Delta.w_input) witnesses)
    in
    List.concat_map
      (fun i -> List.concat_map (trace_attrib ctx) (witness_probes i))
      distinct
  in
  let changed =
    List.sort_uniq P.bref_compare
      (exploit_trace_diff @ corpus_diff @ probe_diff
      @ List.concat_map (fun (w : Delta.witness) -> w.Delta.w_blocks) witnesses
      )
  in
  let static =
    Sedspec.Attrib.program_diff dev_v.Devices.Device.program
      dev_p.Devices.Device.program
  in
  let localized =
    static <> []
    && List.for_all
         (fun (c : Sedspec.Attrib.block_change) ->
           List.exists (P.bref_equal c.Sedspec.Attrib.c_bref) changed)
         static
  in
  {
    Delta.cd_cve = a.Attacks.Attack.cve;
    cd_device = a.Attacks.Attack.device;
    cd_vulnerable = vuln;
    cd_patched = patched;
    cd_static = static;
    cd_changed = changed;
    cd_roots = Sedspec.Attrib.roots ctx.x_graph_p changed;
    cd_witnesses = witnesses;
    cd_clusters = clusters witnesses;
    cd_executed = r.Loop.r_executed;
    cd_divergent = r.Loop.r_divergent_inputs;
    cd_localized = localized;
  }

let run (opts : options) =
  if opts.budget < 0 then invalid_arg "Locate.run: negative budget";
  {
    Delta.seed = opts.seed;
    budget = opts.budget;
    deltas = List.map (locate_cve opts) (targets opts);
  }
