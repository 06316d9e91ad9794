type severity = Critical | High | Medium

let severity_of (a : Checker.anomaly) =
  let base =
    match a.strategy with
    | Checker.Parameter_check -> Critical
    | Checker.Indirect_jump_check -> High
    | Checker.Conditional_jump_check -> Medium
    | Checker.Internal_error ->
      (* The checker itself misbehaved: the shadow can no longer be
         trusted, which is as bad as a confirmed exploitation signal. *)
      Critical
  in
  if a.pre_execution then base
  else
    (* Damage may already have happened: promote. *)
    match base with Medium -> High | High | Critical -> Critical

let severity_to_string = function
  | Critical -> "critical"
  | High -> "high"
  | Medium -> "medium"

type event = { anomaly : Checker.anomaly; severity : severity }

(* The circuit breaker: more than [max_rollbacks] rollbacks within the
   last [breaker_window] ticks escalate to a latched halt. *)
let max_rollbacks = 2
let breaker_window = 8

type t = {
  machine : Vmm.Machine.t;
  checker : Checker.t;
  aux_drain : unit -> Checker.anomaly list;
  mutable recent_rev : int list;
      (** Ticks of the rollbacks inside the breaker window, newest first. *)
  arena : Devir.Arena.t;
  saved_arena : bytes;  (** The arena at the last checkpoint. *)
  mutable events_rev : event list;
  mutable rollbacks : int;
  mutable ticks : int;
  mutable tripped : bool;
  mutable log_rev : string list;
}

(* Guest RAM keeps its own checkpoint image and copies only the pages
   dirtied since the last checkpoint. *)
let take_checkpoint t =
  Devir.Arena.save_into t.arena t.saved_arena;
  Vmm.Guest_mem.checkpoint (Vmm.Machine.ram t.machine)

let log_line t line = t.log_rev <- line :: t.log_rev

let create ?(aux_drain = fun () -> []) machine ~device checker =
  let arena = Interp.arena (Vmm.Machine.interp_of machine device) in
  let t =
    {
      machine;
      checker;
      aux_drain;
      recent_rev = [];
      arena;
      saved_arena = Devir.Arena.snapshot arena;
      events_rev = [];
      rollbacks = 0;
      ticks = 0;
      tripped = false;
      log_rev = [];
    }
  in
  take_checkpoint t;
  t

(* A supervisor ticking on a timer must not crash because its tick raced
   the checker's halt: while halted, refreshing the rollback target would
   capture post-anomaly state, so skip it as a logged no-op instead. *)
let checkpoint t =
  if Vmm.Machine.halted t.machine then
    log_line t "checkpoint skipped: machine is halted"
  else take_checkpoint t

(* Rollbacks inside the trailing breaker window at the current tick. *)
let rollbacks_in_window t =
  let floor = t.ticks - breaker_window in
  List.fold_left (fun n tk -> if tk > floor then n + 1 else n) 0 t.recent_rev

let apply_rollback t =
  Devir.Arena.restore t.arena t.saved_arena;
  Vmm.Guest_mem.rollback (Vmm.Machine.ram t.machine);
  Vmm.Machine.resume t.machine;
  Checker.resync t.checker;
  t.rollbacks <- t.rollbacks + 1;
  (* Only the breaker reads rollback ticks, and only those in its window;
     ticks only grow, so a tick that left the window never re-enters it. *)
  let floor = t.ticks - breaker_window in
  t.recent_rev <- t.ticks :: List.filter (fun tk -> tk > floor) t.recent_rev

(* Would one more rollback at the current tick exceed the breaker?  Counts
   rollbacks inside the trailing window, including the one about to be
   applied. *)
let breaker_would_trip t = rollbacks_in_window t + 1 > max_rollbacks

let tick t =
  t.ticks <- t.ticks + 1;
  if not (Vmm.Machine.halted t.machine) then begin
    (* Clean point: self-heal shadow drift (bounded), then advance the
       rollback target. *)
    (match Checker.heal t.checker with
    | Checker.Heal_clean -> ()
    | Checker.Heal_resynced n ->
      log_line t
        (Printf.sprintf "heal: resynced shadow (%d divergent parameters)" n)
    | Checker.Heal_exhausted n ->
      log_line t
        (Printf.sprintf
           "heal: budget exhausted, %d parameters still divergent" n));
    ignore (Checker.drain_anomalies t.checker);
    ignore (t.aux_drain ());
    Vmm.Machine.clear_warnings t.machine;
    take_checkpoint t;
    []
  end
  else begin
    let anomalies = Checker.drain_anomalies t.checker @ t.aux_drain () in
    if anomalies = [] then
      (* Halted with nothing new to adjudicate: a manual halt, or a halt
         the breaker already escalated.  Leave the machine down — the
         empty fold below would otherwise default to resume. *)
      []
    else begin
    let events =
      List.map (fun anomaly -> { anomaly; severity = severity_of anomaly }) anomalies
    in
    (* Circuit breaker: a fault that re-trips the checker after every
       rollback would otherwise oscillate forever; past the threshold the
       supervisor stops spending rollbacks and leaves the VM down. *)
    if t.tripped || breaker_would_trip t then begin
      if not t.tripped then begin
        t.tripped <- true;
        log_line t
          (Printf.sprintf
             "circuit breaker: >%d rollbacks within %d ticks; escalating to \
              halt"
             max_rollbacks breaker_window)
      end
    end
    else apply_rollback t;
    t.events_rev <- List.rev_append events t.events_rev;
    events
    end
  end

let events t = List.rev t.events_rev
let rollbacks t = t.rollbacks
let breaker_tripped t = t.tripped
let log t = List.rev t.log_rev

(* --- Structured state (for the fleet governor / health JSON) ----------- *)

type snapshot = {
  s_ticks : int;
  s_events : int;
  s_rollbacks : int;
  s_rollbacks_in_window : int;
  s_breaker_tripped : bool;
  s_halted : bool;
}

let snapshot t =
  {
    s_ticks = t.ticks;
    s_events = List.length t.events_rev;
    s_rollbacks = t.rollbacks;
    s_rollbacks_in_window = rollbacks_in_window t;
    s_breaker_tripped = t.tripped;
    s_halted = Vmm.Machine.halted t.machine;
  }

let pp_event ppf e =
  Format.fprintf ppf "[%s] %a" (severity_to_string e.severity) Checker.pp_anomaly e.anomaly
