(* Memoised spec builds and guard profiles, shared by every harness.

   The cache is domain-safe: lookups and inserts are mutex-guarded, and
   every value is built single-flight, so a spec is never built twice. *)

let training_cases = ref 24

(* One typed key per cached value: the device, its version, and which
   training produced the spec. *)
type derivation = Base | Retrained of int
type key = string * string * derivation

let key_of (module W : Workload.Samples.DEVICE_WORKLOAD) version derivation : key =
  (W.device_name, Devices.Qemu_version.to_string version, derivation)

type 'a slot = Building | Ready of 'a

let cache : (key, Sedspec.Pipeline.built slot) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()
let landed = Condition.create ()

(* Build-fault seam: runs at the top of every single-flight build with
   the device name and may raise, simulating a transient build failure.
   The failing build's [Building] marker is evicted before the exception
   reaches the caller, so waiters (and retrying callers, e.g. the fleet's
   seeded backoff) observe either [Ready] or an empty slot — never a
   stuck marker.  An atomic so a test arming it from the main domain is
   seen by pool domains without racing the cache mutex. *)
let build_fault : (string -> unit) option Atomic.t = Atomic.make None
let set_build_fault hook = Atomic.set build_fault hook

let fire_build_fault device =
  match Atomic.get build_fault with Some f -> f device | None -> ()

(* Successful single-flight builds since process start.  With the
   arena/cursor split this counts compiled-arena constructions too (one
   per build): the fleet asserts its delta stays at one per
   (device, version) key no matter how many VMs or domains ask. *)
let build_count = Atomic.make 0
let builds () = Atomic.get build_count

(* The first caller for a key inserts a [Building] marker and builds
   outside the lock; concurrent callers for the same key wait on
   [landed] until the value lands.  A build that raises clears its
   marker and wakes the waiters, one of which retries. *)
let single_flight table key build =
  let claim () =
    let rec wait () =
      match Hashtbl.find_opt table key with
      | Some (Ready v) -> `Hit v
      | Some Building ->
        Condition.wait landed lock;
        wait ()
      | None ->
        Hashtbl.replace table key Building;
        `Build
    in
    Mutex.lock lock;
    let r = wait () in
    Mutex.unlock lock;
    r
  in
  match claim () with
  | `Hit v -> v
  | `Build -> (
    match build () with
    | v ->
      Mutex.lock lock;
      Hashtbl.replace table key (Ready v);
      Condition.broadcast landed;
      Mutex.unlock lock;
      v
    | exception e ->
      Mutex.lock lock;
      Hashtbl.remove table key;
      Condition.broadcast landed;
      Mutex.unlock lock;
      raise e)

let counted build () =
  let b = build () in
  Atomic.incr build_count;
  b

let built (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  single_flight cache (key_of (module W) version Base)
    (counted (fun () ->
         fire_build_fault W.device_name;
         let m = W.make_machine version in
         Sedspec.Pipeline.build m ~device:W.device_name
           (W.trainer ~cases:!training_cases)))

(* Candidate key: a fresh training pass at a different corpus size — the
   evolution ladder's retrained-on-recent-traffic candidate.  The spec is
   stamped one revision past the cached base so the rollout can order and
   pin generations.  The inner [built] call may itself trigger (or wait
   on) the base build; neither single-flight holds the lock while
   building, so the nesting cannot deadlock. *)
let built_retrained (module W : Workload.Samples.DEVICE_WORKLOAD) version
    ~cases =
  if cases < 1 then invalid_arg "Spec_cache.built_retrained: cases must be >= 1";
  single_flight cache
    (key_of (module W) version (Retrained cases))
    (counted (fun () ->
         fire_build_fault W.device_name;
         let base = built (module W) version in
         let m = W.make_machine version in
         let b =
           Sedspec.Pipeline.build m ~device:W.device_name (W.trainer ~cases)
         in
         Sedspec.Es_cfg.set_version b.Sedspec.Pipeline.spec
           ~revision:(Sedspec.Es_cfg.revision base.Sedspec.Pipeline.spec + 1)
           ~provenance:(Sedspec.Es_cfg.Retrained cases);
         b))

let fresh_protected_machine ?config
    (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  let b = built (module W) version in
  let m = W.make_machine version in
  let checker = Sedspec.Pipeline.protect ?config m ~device:W.device_name b in
  (m, checker)

(* Response-direction profiles for the guest-side validator, under the
   same single-flight discipline but in their own table and counter: the
   fleet asserts exactly one {!builds} delta per (device, version) spec
   key, and a guard profile is not a spec build. *)
let gcache : (key, Guard.Resp.profile slot) Hashtbl.t = Hashtbl.create 8
let guard_build_count = Atomic.make 0
let guard_builds () = Atomic.get guard_build_count

(* Fail-closed substitutions: a (device, version) pair whose guard
   training raised gets {!Guard.Resp.fail_closed} instead of no guard at
   all — counted separately so harnesses can assert the substitution
   happened (or didn't). *)
let guard_fail_closed_count = Atomic.make 0
let guard_fail_closed () = Atomic.get guard_fail_closed_count

(* Fail closed, not open: if the benign corpus cannot be trained for this
   pair, cache the all-deny profile rather than propagating and leaving
   the response channel unguarded.  The substitution is cached like a
   real profile (it is the profile for an untrained pair), so waiters
   observe it too. *)
let guard_profile (module W : Workload.Samples.DEVICE_WORKLOAD) version =
  single_flight gcache (key_of (module W) version Base) (fun () ->
      match
        let m = W.make_machine version in
        Guard.Resp.train m ~device:W.device_name
          (W.trainer ~cases:!training_cases)
      with
      | p ->
        Atomic.incr guard_build_count;
        p
      | exception _ ->
        Atomic.incr guard_fail_closed_count;
        Guard.Resp.fail_closed ~device:W.device_name)
