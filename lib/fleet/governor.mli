(** Error-budget governor: the paper's two working modes (§VII) as a
    degradation ladder.

    Each protected VM carries a sliding-window budget over checker
    trouble — non-parameter anomalies (the false-positive-prone
    conditional/indirect strategies), contained internal errors
    (including deadline-watchdog overruns) and bulkhead-caught workload
    crashes.  Burning through the budget degrades the checker one rung,
    trading detection breadth for availability; a sustained clean window
    restores one rung:

    {v Protection  ->  Enhancement  ->  Fail_open v}

    - [Protection]: the paper's protection mode, fail-closed containment;
    - [Enhancement]: the paper's enhancement mode (only parameter-check
      anomalies halt, the rest warn), fail-closed containment;
    - [Fail_open]: enhancement mode with fail-open-warn containment —
      internal checker errors no longer block the interaction.

    {b Hard invariant}: no rung ever admits a parameter-check anomaly.
    Every configuration {!checker_config} produces keeps
    [Parameter_check] among the enabled strategies and a working mode
    that halts on it (the paper's enhancement mode still blocks those);
    degradation only ever relaxes the warn-only strategies and the
    internal-error policy.

    {b Hysteresis}: the window holds the last 8 observations.
    Degradation requires its burn to {e exceed} 6; restoration requires
    it to stay {e at or below} 2 for 4 consecutive observations.  A burn
    rate sitting exactly on either boundary therefore holds the current
    rung — the ladder cannot oscillate on a boundary burn rate.  Every
    transition clears the window and the clean streak, so a single
    incident is charged once. *)

(** The governor's sliding-window accumulator, exposed so other ladders
    (the rollout's agreement budget) share the exact same window
    semantics: a fixed-size ring of per-observation burns whose running
    sum is the windowed total. *)
module Budget : sig
  type t

  val create : window:int -> t
  (** Zero-filled ring of [window] (>= 1) observations; raises
      [Invalid_argument] otherwise. *)

  val observe : t -> int -> unit
  (** Push one observation (>= 0), evicting the oldest. *)

  val sum : t -> int
  (** Total burn across the current window. *)

  val window : t -> int
  val clear : t -> unit
end

type state = Protection | Enhancement | Fail_open

type transition =
  | Steady
  | Degraded of state * state  (** (from, to) — one rung down. *)
  | Restored of state * state  (** (from, to) — one rung up. *)

type t

val create : unit -> t
(** Fresh governor at [Protection] with an empty window. *)

val observe : t -> burn:int -> transition
(** Record one observation period's burn (>= 0) and apply the ladder
    rules.  At most one transition per observation. *)

val state : t -> state
val burn_in_window : t -> int

val degrades : t -> int
(** Total rungs descended so far. *)

val restores : t -> int
(** Total rungs re-ascended so far. *)

val checker_config :
  state -> base:Sedspec.Checker.config -> Sedspec.Checker.config
(** The checker configuration enforcing a rung, preserving [base]'s
    engine and walk limit.  Always includes
    [Parameter_check] in the strategies (adding it if [base] dropped it)
    and always maps to a mode that halts parameter-check anomalies — the
    hard invariant above. *)

val state_to_string : state -> string
