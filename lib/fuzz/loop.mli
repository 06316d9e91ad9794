(** Coverage-guided differential fuzzing of the ES-Checker.

    Mutation-based exploration of I/O interaction sequences, fed back by
    the ES-CFG node/edge coverage of the checker's walk, with the
    compiled-vs-interpreted / protection-vs-enhancement differential
    oracle of {!Exec}.  With a fixed seed the corpus and report are
    bit-identical for any job count: candidates are derived sequentially
    from the master PRNG, evaluated in parallel on {!Sedspec_util.Runner}
    domains, and merged back in batch order. *)

type options = {
  device : string;
  seed : int64;
  budget : int;  (** Mutant evaluations (seed evaluations are extra). *)
  jobs : int;
  batch : int;  (** Candidates derived per generation. *)
  max_steps : int;  (** Mutant length cap. *)
  profiles : Exec.profile list;
  extra_seeds : Input.t list;  (** Appended to the recorded seed corpus. *)
}

val default_options : device:string -> options
(** Seed 0, budget 1000, 1 job, batch 32, max 48 steps, the default
    profiles.  Each reproducer shrink runs {!ddmin} with its default
    budget. *)

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
  r_findings : finding list;  (** One shrunk reproducer per (profile, field). *)
  r_fp_candidates : string list;  (** Benign seeds that tripped the checker. *)
}

val ddmin :
  ?max_evals:int -> test:('a array -> bool) -> 'a array -> 'a array
(** Classic delta debugging: a minimal-ish subsequence on which [test]
    (the "still interesting" predicate) holds.  [test] is never called on
    the input itself, which the caller already knows is interesting, and
    at most [max_evals] (default 400) times. *)

val run : options -> report

val report_to_json : report -> Sedspec_util.Json.t

val report_to_string : report -> string
(** Deterministic JSON; excludes job count and wall-clock so runs with
    different [--jobs] emit byte-identical reports. *)
