module Checker = Sedspec.Checker

type violation =
  | V_sequence
  | V_envelope
  | V_dma_len
  | V_irq_storm
  | V_event_storm
  | V_internal

let violation_index = function
  | V_sequence -> 0
  | V_envelope -> 1
  | V_dma_len -> 2
  | V_irq_storm -> 3
  | V_event_storm -> 4
  | V_internal -> 5

let violation_to_string = function
  | V_sequence -> "response-sequence"
  | V_envelope -> "value-envelope"
  | V_dma_len -> "dma-length"
  | V_irq_storm -> "irq-storm"
  | V_event_storm -> "response-storm"
  | V_internal -> "internal"

type anomaly = { violation : violation; detail : string }

type config = { containment : Checker.containment }

let default_config = { containment = Checker.Fail_closed }

(* Stale-buffer clears [heal] may perform per validator lifetime. *)
let heal_budget = 8

type t = {
  device : string;
  profile : Resp.profile;
  mutable config : config;
  mutable remove : unit -> unit;  (* the hook and interposer layers *)
  (* In-flight interaction state. *)
  mutable prev_kind : Resp.kind option;
  mutable events : int;
  mutable irqs : int;
  flagged : bool array;  (** One anomaly per violation kind per interaction. *)
  mutable pending_rev : anomaly list;
  (* Accumulated. *)
  mutable anomalies_rev : anomaly list;
  mutable internal_errors : int;
  mutable interactions : int;
  mutable events_seen : int;
  mutable heals : int;
  mutable checks : int;
  mutable fault_hook : (unit -> unit) option;
}

let pend t violation detail =
  if not t.flagged.(violation_index violation) then begin
    t.flagged.(violation_index violation) <- true;
    t.pending_rev <- { violation; detail } :: t.pending_rev
  end

let record_internal t msg =
  t.internal_errors <- t.internal_errors + 1;
  t.anomalies_rev <-
    { violation = V_internal; detail = msg } :: t.anomalies_rev

let check_kind t (k : Resp.kind) =
  let p = t.profile in
  (match t.prev_kind with
  | None ->
    if not p.Resp.starts.(Resp.kind_index k) then
      pend t V_sequence
        (Printf.sprintf "untrained opening response: %s"
           (Resp.kind_to_string k))
  | Some pk ->
    if not p.Resp.follows.(Resp.kind_index pk).(Resp.kind_index k) then
      pend t V_sequence
        (Printf.sprintf "untrained response sequence: %s after %s"
           (Resp.kind_to_string k) (Resp.kind_to_string pk)));
  t.prev_kind <- Some k;
  t.events <- t.events + 1;
  t.events_seen <- t.events_seen + 1;
  if t.events > p.Resp.events_max then
    pend t V_event_storm
      (Printf.sprintf "response storm: %d events in one interaction (bound %d)"
         t.events p.Resp.events_max)

(* The hook runs inside device execution: it must be total.  Any internal
   failure is contained here and adjudicated at the interaction boundary. *)
let on_event t (ev : Interp.Event.response_event) =
  try
    let p = t.profile in
    match ev with
    | Interp.Event.R_read_return v ->
      check_kind t Resp.K_read;
      if Int64.logand v (Int64.lognot p.Resp.read_mask) <> 0L then
        pend t V_envelope
          (Printf.sprintf
             "read-return 0x%Lx outside trained envelope 0x%Lx" v
             p.Resp.read_mask)
    | Interp.Event.R_dma_out { len; _ } ->
      check_kind t Resp.K_dma;
      if len > p.Resp.dma_len_max then
        pend t V_dma_len
          (Printf.sprintf "outbound DMA length %d exceeds trained bound %d"
             len p.Resp.dma_len_max)
    | Interp.Event.R_store { value; _ } ->
      check_kind t Resp.K_store;
      if Int64.logand value (Int64.lognot p.Resp.store_mask) <> 0L then
        pend t V_envelope
          (Printf.sprintf
             "completion store 0x%Lx outside trained envelope 0x%Lx" value
             p.Resp.store_mask)
    | Interp.Event.R_irq true ->
      check_kind t Resp.K_irq;
      t.irqs <- t.irqs + 1;
      if t.irqs > p.Resp.irq_max then
        pend t V_irq_storm
          (Printf.sprintf "IRQ storm: %d raises in one interaction (bound %d)"
             t.irqs p.Resp.irq_max)
    | Interp.Event.R_irq false -> ()
  with e -> record_internal t ("response hook: " ^ Printexc.to_string e)

let reset_inflight t =
  t.prev_kind <- None;
  t.events <- 0;
  t.irqs <- 0;
  Array.fill t.flagged 0 (Array.length t.flagged) false

let before t _ =
  (* A left-over in-flight buffer means the previous interaction never
     reached [after] (e.g. a trap unwound dispatch): adjudicate what it
     gathered rather than leaking it into this interaction's sequence. *)
  if t.pending_rev <> [] then begin
    t.anomalies_rev <- t.pending_rev @ t.anomalies_rev;
    t.pending_rev <- []
  end;
  reset_inflight t;
  t.interactions <- t.interactions + 1;
  Vmm.Machine.Allow

let after t _ _ =
  (* The interaction is closed: nothing it gathered is stale, and [heal]
     tells a stale buffer by its last response kind. *)
  t.prev_kind <- None;
  try
    t.checks <- t.checks + 1;
    (match t.fault_hook with Some f -> f () | None -> ());
    match t.pending_rev with
    | [] -> Vmm.Machine.Allow
    | pending ->
      t.anomalies_rev <- pending @ t.anomalies_rev;
      t.pending_rev <- [];
      let first = List.nth pending (List.length pending - 1) in
      Vmm.Machine.Halt (Printf.sprintf "guard: %s" first.detail)
  with e ->
    record_internal t ("verdict: " ^ Printexc.to_string e);
    (match t.config.containment with
    | Checker.Fail_closed -> Vmm.Machine.Halt "guard: internal error (fail closed)"
    | Checker.Fail_open_warn -> Vmm.Machine.Warn "guard: internal error (fail open)")

let attach ?(config = default_config) machine ~device ~profile =
  let t =
    {
      device;
      profile;
      config;
      remove = ignore;
      prev_kind = None;
      events = 0;
      irqs = 0;
      flagged = Array.make 6 false;
      pending_rev = [];
      anomalies_rev = [];
      internal_errors = 0;
      interactions = 0;
      events_seen = 0;
      heals = 0;
      checks = 0;
      fault_hook = None;
    }
  in
  let remove_hooks =
    Interp.add_hooks (Vmm.Machine.interp_of machine device)
      { Interp.silent_hooks with Interp.on_response = on_event t }
  in
  let remove_interposer =
    Vmm.Machine.add_interposer machine device
      { Vmm.Machine.before = before t; after = after t }
  in
  t.remove <-
    (fun () ->
      remove_hooks ();
      remove_interposer ());
  t

let detach t = t.remove ()

let anomalies t = List.rev t.anomalies_rev

let drain t =
  let l = List.rev t.anomalies_rev in
  t.anomalies_rev <- [];
  l

let strategy_of = function
  | V_envelope | V_dma_len -> Checker.Parameter_check
  | V_sequence | V_irq_storm | V_event_storm -> Checker.Conditional_jump_check
  | V_internal -> Checker.Internal_error

let drain_as_checker_anomalies t =
  List.map
    (fun a ->
      {
        Checker.strategy = strategy_of a.violation;
        at = None;
        detail = "guard: " ^ a.detail;
        pre_execution = false;
      })
    (drain t)

(* Bounded self-healing, mirroring the checker's discipline: clear a
   stale in-flight buffer (responses of an interaction that never reached
   [after], or anomalies still pending), at most [heal_budget] times per
   validator lifetime. *)
let heal t =
  if t.prev_kind = None && t.pending_rev = [] then true
  else if t.heals >= heal_budget then false
  else begin
    t.heals <- t.heals + 1;
    if t.pending_rev <> [] then begin
      t.anomalies_rev <- t.pending_rev @ t.anomalies_rev;
      t.pending_rev <- []
    end;
    reset_inflight t;
    true
  end

let reset t =
  reset_inflight t;
  t.pending_rev <- [];
  t.anomalies_rev <- [];
  t.internal_errors <- 0;
  t.interactions <- 0;
  t.events_seen <- 0;
  t.heals <- 0;
  t.checks <- 0;
  t.fault_hook <- None

let set_fault_hook t h = t.fault_hook <- h
let internal_errors t = t.internal_errors
let interactions t = t.interactions
let events_seen t = t.events_seen
let heals t = t.heals
let config t = t.config
let set_config t c = t.config <- c
let profile t = t.profile
let device t = t.device

let pp_anomaly ppf a =
  Format.fprintf ppf "[guard:%s] %s" (violation_to_string a.violation) a.detail
