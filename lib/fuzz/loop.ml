(* The coverage-guided fuzzing loop.

   Determinism is the load-bearing property: with a fixed seed the whole
   run — corpus, coverage, report — must be bit-identical for any
   [--jobs] value, because the CI smoke compares runs across job counts
   and a reproducer is only useful if replaying it tomorrow shows the
   same thing.  The loop is therefore batch-generational: candidates are
   derived {e sequentially} from the master PRNG (mutation needs the
   corpus as of the batch start), evaluated {e in parallel} (evaluation
   is pure: fresh machine per replay, shared state limited to the
   domain-safe spec/device caches), and merged back {e sequentially} in
   batch order. *)

module Prng = Sedspec_util.Prng
module Runner = Sedspec_util.Runner
module Json = Sedspec_util.Json
module C = Sedspec.Checker

type options = {
  device : string;
  seed : int64;
  budget : int;  (** Mutant evaluations (seed evaluations are extra). *)
  jobs : int;
  batch : int;
  max_steps : int;
  profiles : Exec.profile list;
  extra_seeds : Input.t list;  (** Appended to the recorded seed corpus. *)
}

let default_options ~device =
  {
    device;
    seed = 0L;
    budget = 1000;
    jobs = 1;
    batch = 32;
    max_steps = 48;
    profiles = Exec.default_profiles;
    extra_seeds = [];
  }

type finding = {
  f_profile : string;
  f_field : string;
  f_detail : string;
  f_original_len : int;  (** Steps in the input the divergence was found on. *)
  f_input : Input.t;  (** Shrunk reproducer. *)
}

type report = {
  r_device : string;
  r_seed : int64;
  r_budget : int;
  r_executed : int;
  r_seed_corpus : int;
  r_corpus : Input.t list;  (** Seeds + coverage-novel mutants, in order. *)
  r_seed_nodes : int;
  r_seed_edges : int;
  r_nodes : int;
  r_edges : int;
  r_crashes : int;
  r_divergent_inputs : int;
  r_findings : finding list;
  r_fp_candidates : string list;
}

(* --- Delta debugging ---------------------------------------------------- *)

(* Classic ddmin over the step sequence: repeatedly try dropping chunks
   while [test] (= "still interesting") holds, refining granularity until
   single steps can't be removed.  [max_evals] bounds the number of
   [test] calls so a pathological reproducer can't stall the run. *)
let ddmin ?(max_evals = 400) ~test steps =
  let evals = ref 0 in
  let check s =
    if !evals >= max_evals then false
    else begin
      incr evals;
      test s
    end
  in
  let drop_chunk arr ~start ~len =
    let n = Array.length arr in
    Array.init (n - len) (fun i -> if i < start then arr.(i) else arr.(i + len))
  in
  let rec go arr granularity =
    let n = Array.length arr in
    if n <= 1 || granularity > n then arr
    else begin
      let chunk = max 1 (n / granularity) in
      let rec try_chunks start =
        if start >= n then None
        else
          let len = min chunk (n - start) in
          let candidate = drop_chunk arr ~start ~len in
          if Array.length candidate < Array.length arr && check candidate then
            Some candidate
          else try_chunks (start + len)
      in
      match try_chunks 0 with
      | Some smaller -> go smaller (max 2 (granularity - 1))
      | None -> if chunk = 1 then arr else go arr (min n (granularity * 2))
    end
  in
  if Array.length steps = 0 then steps else go steps 2

let shrink_input (input : Input.t) ~interesting =
  let test steps = interesting { input with Input.steps } in
  let steps = ddmin ~test input.steps in
  { input with Input.steps = steps }

(* --- The loop ----------------------------------------------------------- *)

let run (opts : options) =
  if opts.budget < 0 then invalid_arg "Fuzz.run: negative budget";
  if opts.batch < 1 then invalid_arg "Fuzz.run: batch must be positive";
  let seeds = Input.seed_corpus ~device:opts.device @ opts.extra_seeds in
  let evaluate input = Exec.evaluate ~profiles:opts.profiles input in
  (* Global coverage and the corpus the mutator draws parents from. *)
  let global = C.coverage_create () in
  let corpus = ref [] (* newest first *) in
  let corpus_n = ref 0 in
  let keep input = corpus := input :: !corpus; incr corpus_n in
  let crashes = ref 0 in
  let divergent_inputs = ref 0 in
  let fp_candidates = ref [] in
  (* One shrink per distinct (profile, field) signature keeps the report
     small and the shrink cost bounded. *)
  let findings : (string * string, finding) Hashtbl.t = Hashtbl.create 8 in
  let absorb_outcome (input : Input.t) (o : Exec.outcome) =
    let fresh = C.coverage_absorb ~into:global o.Exec.coverage in
    (match o.Exec.crashed with Some _ -> incr crashes | None -> ());
    if o.Exec.divergences <> [] then incr divergent_inputs;
    List.iter
      (fun (d : Exec.divergence) ->
        let key = (d.d_profile, d.d_field) in
        if not (Hashtbl.mem findings key) then begin
          let interesting cand =
            let o = evaluate cand in
            List.exists
              (fun (d' : Exec.divergence) ->
                d'.d_profile = d.d_profile && d'.d_field = d.d_field)
              o.Exec.divergences
          in
          let shrunk = shrink_input input ~interesting in
          Hashtbl.replace findings key
            {
              f_profile = d.d_profile;
              f_field = d.d_field;
              f_detail = d.d_detail;
              f_original_len = Array.length input.Input.steps;
              f_input = shrunk;
            }
        end)
      o.Exec.divergences;
    (match (input.Input.origin, o.Exec.anomalous) with
    | Input.Benign, true ->
      fp_candidates :=
        Printf.sprintf "benign seed (%d steps) tripped the checker"
          (Array.length input.Input.steps)
        :: !fp_candidates
    | _ -> ());
    fresh
  in
  (* Seed phase: all seeds enter the corpus; their combined coverage is
     the baseline mutants must improve on. *)
  let seed_outcomes = Runner.map ~jobs:opts.jobs evaluate seeds in
  List.iter2
    (fun input o ->
      ignore (absorb_outcome input o);
      keep input)
    seeds seed_outcomes;
  let seed_nodes = C.coverage_node_count global in
  let seed_edges = C.coverage_edge_count global in
  (* Mutant generations. *)
  let master = Prng.create opts.seed in
  let executed = ref 0 in
  while !executed < opts.budget do
    let n = min opts.batch (opts.budget - !executed) in
    let pool = Array.of_list (List.rev !corpus) in
    let candidates =
      List.init n (fun _ ->
          let parent = pool.(Prng.int master (Array.length pool)) in
          let rng = Prng.split master in
          Mutate.mutate ~rng ~max_steps:opts.max_steps ~pool parent)
    in
    let outcomes = Runner.map ~jobs:opts.jobs evaluate candidates in
    List.iter2
      (fun input o ->
        incr executed;
        if absorb_outcome input o > 0 then keep input)
      candidates outcomes
  done;
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) findings []
    |> List.sort (fun a b ->
           compare (a.f_profile, a.f_field) (b.f_profile, b.f_field))
  in
  {
    r_device = opts.device;
    r_seed = opts.seed;
    r_budget = opts.budget;
    r_executed = !executed;
    r_seed_corpus = List.length seeds;
    r_corpus = List.rev !corpus;
    r_seed_nodes = seed_nodes;
    r_seed_edges = seed_edges;
    r_nodes = C.coverage_node_count global;
    r_edges = C.coverage_edge_count global;
    r_crashes = !crashes;
    r_divergent_inputs = !divergent_inputs;
    r_findings = findings;
    r_fp_candidates = List.rev !fp_candidates;
  }

(* --- Report ------------------------------------------------------------- *)

(* Deliberately excludes job count and wall-clock: the emitted JSON must
   be byte-identical across [--jobs] values. *)
let report_to_json r =
  Json.Obj
    [
      ("device", Json.Str r.r_device);
      ("seed", Json.Str (Printf.sprintf "0x%Lx" r.r_seed));
      ("budget", Json.Int r.r_budget);
      ("executed", Json.Int r.r_executed);
      ("seed_corpus", Json.Int r.r_seed_corpus);
      ("corpus_size", Json.Int (List.length r.r_corpus));
      ( "coverage",
        Json.Obj
          [
            ("seed_nodes", Json.Int r.r_seed_nodes);
            ("seed_edges", Json.Int r.r_seed_edges);
            ("nodes", Json.Int r.r_nodes);
            ("edges", Json.Int r.r_edges);
            ("new_nodes", Json.Int (r.r_nodes - r.r_seed_nodes));
            ("new_edges", Json.Int (r.r_edges - r.r_seed_edges));
          ] );
      ("crashes", Json.Int r.r_crashes);
      ("divergent_inputs", Json.Int r.r_divergent_inputs);
      ( "divergences",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("profile", Json.Str f.f_profile);
                   ("field", Json.Str f.f_field);
                   ("detail", Json.Str f.f_detail);
                   ("original_steps", Json.Int f.f_original_len);
                   ("steps", Json.Int (Array.length f.f_input.Input.steps));
                   ("reproducer", Json.Str (Input.to_string f.f_input));
                 ])
             r.r_findings) );
      ("fp_candidates", Json.List (List.map (fun s -> Json.Str s) r.r_fp_candidates));
    ]

let report_to_string r = Json.to_string (report_to_json r)
