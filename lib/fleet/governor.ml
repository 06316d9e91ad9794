module Checker = Sedspec.Checker

(* The sliding-window accumulator the governor rides on, split out so
   other ladders (the rollout's agreement budget) reuse the exact same
   window semantics instead of reimplementing them. *)
module Budget = struct
  type t = {
    ring : int array;
    mutable pos : int;
    mutable sum : int;
  }

  let create ~window =
    if window < 1 then invalid_arg "Governor.Budget: window must be >= 1";
    { ring = Array.make window 0; pos = 0; sum = 0 }

  let window t = Array.length t.ring

  let observe t burn =
    if burn < 0 then invalid_arg "Governor.Budget.observe: burn must be >= 0";
    t.sum <- t.sum - t.ring.(t.pos) + burn;
    t.ring.(t.pos) <- burn;
    t.pos <- (t.pos + 1) mod Array.length t.ring

  let sum t = t.sum

  let clear t =
    Array.fill t.ring 0 (Array.length t.ring) 0;
    t.pos <- 0;
    t.sum <- 0
end

type state = Protection | Enhancement | Fail_open

(* The ladder's thresholds: a window of [window] observations; degrade
   when its burn exceeds [degrade_burn]; restore after [restore_clean]
   consecutive observations with a burn of at most [restore_burn]. *)
let window = 8
let degrade_burn = 6
let restore_burn = 2
let restore_clean = 4

type transition =
  | Steady
  | Degraded of state * state
  | Restored of state * state

type t = {
  budget : Budget.t;  (** Last [window] burns; zero-filled at creation. *)
  mutable state : state;
  mutable clean : int;  (** Current restore-eligible streak. *)
  mutable degrades : int;
  mutable restores : int;
}

let create () =
  {
    budget = Budget.create ~window;
    state = Protection;
    clean = 0;
    degrades = 0;
    restores = 0;
  }

let state t = t.state
let burn_in_window t = Budget.sum t.budget
let degrades t = t.degrades
let restores t = t.restores

let down = function
  | Protection -> Some Enhancement
  | Enhancement -> Some Fail_open
  | Fail_open -> None

let up = function
  | Fail_open -> Some Enhancement
  | Enhancement -> Some Protection
  | Protection -> None

(* A transition charges the incident once: the window and the streak
   restart, so the same burn cannot immediately drive a second rung. *)
let clear_window t =
  Budget.clear t.budget;
  t.clean <- 0

let observe t ~burn =
  if burn < 0 then invalid_arg "Governor.observe: burn must be >= 0";
  Budget.observe t.budget burn;
  if Budget.sum t.budget > degrade_burn then begin
    t.clean <- 0;
    match down t.state with
    | None -> Steady (* already at the bottom rung *)
    | Some s ->
      let from = t.state in
      t.state <- s;
      t.degrades <- t.degrades + 1;
      clear_window t;
      Degraded (from, s)
  end
  else if Budget.sum t.budget <= restore_burn then begin
    t.clean <- t.clean + 1;
    if t.clean >= restore_clean then
      match up t.state with
      | None ->
        t.clean <- 0;
        Steady
      | Some s ->
        let from = t.state in
        t.state <- s;
        t.restores <- t.restores + 1;
        clear_window t;
        Restored (from, s)
    else Steady
  end
  else begin
    (* Between the thresholds: the hysteresis band.  Hold the rung and
       break the streak — neither boundary value can flap the state. *)
    t.clean <- 0;
    Steady
  end

let checker_config state ~base =
  let strategies =
    if List.mem Checker.Parameter_check base.Checker.strategies then
      base.Checker.strategies
    else Checker.Parameter_check :: base.Checker.strategies
  in
  match state with
  | Protection ->
    {
      base with
      Checker.strategies;
      mode = Checker.Protection;
      on_internal_error = Checker.Fail_closed;
    }
  | Enhancement ->
    {
      base with
      Checker.strategies;
      mode = Checker.Enhancement;
      on_internal_error = Checker.Fail_closed;
    }
  | Fail_open ->
    {
      base with
      Checker.strategies;
      mode = Checker.Enhancement;
      on_internal_error = Checker.Fail_open_warn;
    }

let state_to_string = function
  | Protection -> "protection"
  | Enhancement -> "enhancement"
  | Fail_open -> "fail-open"
