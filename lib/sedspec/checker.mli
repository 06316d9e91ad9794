(** ES-Checker: runtime protection by execution-specification enforcement
    (paper §VI).

    For every I/O interaction the checker simulates the device's execution
    over the ES-CFG {e before} the device runs: it replays each node's
    DSOD against its own shadow device state (reading guest memory where
    the device would) and resolves each NBTD, applying the three check
    strategies:

    - {b parameter check}: integer overflow on any device-state
      assignment, and buffer-bound violations for buffer operations whose
      index/offset/length is linked to device state or I/O request data
      (values reaching the device only through guest memory temporaries
      are this strategy's documented blind spot, as in the paper);
    - {b indirect jump check}: a function-pointer call whose target — with
      function-pointer parameters refreshed from the live control
      structure — is not one of the targets observed in training;
    - {b conditional jump check}: a branch direction, switch case or
      command never observed in training, a block outside the current
      command's access set, or a walk exceeding its cycle budget (the
      infinite-loop signature).

    Interactions whose path crosses a sync point cannot be fully simulated
    in advance; the checker defers them, lets the device run with sync
    instrumentation, and completes the checks with the synchronised
    values.

    The shadow device state moves with each interaction.  A walk runs
    over a scratch copy of the shadow's tracked spans, with function
    pointers refreshed from the live control structure.  When the
    pre-execution walk succeeds and the device then completes, [after]
    commits the scratch copy into the shadow: one copy per committed
    interaction, since nothing walks between [before] and [after].  A
    later interposer layer that halts the request skips [after]; the
    next [before] drops that uncommitted walk.  A deferred walk commits
    the same way once the device has run.  After a device trap, a bail
    or an anomaly, the shadow is resynchronised from the live control
    structure instead.

    Working modes: in [Protection] any anomaly halts the VM; in
    [Enhancement] only parameter-check anomalies halt, the others warn.

    Containment: the interposer returned by {!interposer} (and installed
    by {!attach}) never lets an exception escape into [Vmm.Machine]
    dispatch — any exception raised inside the checker is converted into
    an [Internal_error] diagnostic anomaly and a verdict chosen by the
    [on_internal_error] policy. *)

type strategy =
  | Parameter_check
  | Indirect_jump_check
  | Conditional_jump_check
  | Internal_error
      (** Diagnostic channel for exceptions contained inside the checker
          itself (never a configured strategy; ignored in
          [config.strategies]). *)

type mode = Protection | Enhancement

type anomaly = {
  strategy : strategy;
  at : Devir.Program.bref option;
  detail : string;
  pre_execution : bool;
      (** [true] when raised before the device ran (prevention). *)
}

(** Walk engine.  [Compiled] (the default) lowers the frozen spec once
    through {!Compile.lower} into an array-indexed, closure-compiled form;
    [Interpreted] is the reference tree-walking implementation.  The two
    are verdict-for-verdict identical (enforced by the differential test);
    only throughput differs. *)
type engine = Interpreted | Compiled

(** What a contained internal checker error does to the interaction:
    [Fail_closed] blocks it (verdict [Halt] — protection degrades to
    unavailability, never to silence); [Fail_open_warn] lets the device
    run but records a [Warn] verdict.  Independent of the working mode. *)
type containment = Fail_closed | Fail_open_warn

type config = {
  strategies : strategy list;
  mode : mode;
  walk_limit : int;  (** ES-CFG nodes visited per interaction. *)
  engine : engine;
  on_internal_error : containment;
}

val default_config : config
(** All three strategies, protection mode, walk limit 20000, compiled
    engine, fail-closed containment. *)

type stats = {
  mutable interactions : int;
  mutable walks_ok : int;
  mutable bails : int;  (** Off-graph with the conditional check disabled. *)
  mutable deferred : int;  (** Sync-point interactions checked post-run. *)
  mutable nodes_walked : int;
}

type t

val create :
  ?config:config ->
  ?compiled:Compile.t ->
  spec:Es_cfg.t ->
  device_arena:Devir.Arena.t ->
  guest:Interp.guest ->
  unit ->
  t
(** [?compiled] installs an already-lowered immutable arena (it must have
    been lowered from the {e physically same} [spec] — enforced with
    [invalid_arg]).  The checker only ever allocates its private
    {!Compile.cursor} over it, so any number of checkers across any
    number of domains can share one arena.  Without it, the checker
    lowers its own private arena lazily on the first compiled walk. *)

val compiled_arena : t -> Compile.t option
(** The compiled arena this checker walks: the shared arena passed at
    creation, or the private lazily-lowered one ([None] until the first
    compiled walk in that case). *)

val attach :
  ?config:config -> ?compiled:Compile.t -> Vmm.Machine.t -> spec:Es_cfg.t -> string -> t
(** [attach machine ~spec device] wires a checker in front of the named
    device: adds the checker's interposer layer and sync-point layer,
    installs the icall guard and initialises the shadow state from the
    live control structure.
    [?compiled] is passed through to {!create}. *)

val interposer : t -> Vmm.Machine.interposer
(** The containment-wrapped interposer: no exception escapes; internal
    errors become [Internal_error] anomalies with a policy verdict, and
    the shadow is resynced (the failed walk may have left it
    inconsistent).  This is what {!attach} installs. *)

val internal_errors : t -> int
(** Exceptions contained so far (monotone; survives {!drain_anomalies},
    cleared by {!reset}). *)

val set_fault_hook : t -> (unit -> unit) option -> unit
(** Fault-injection seam: the hook runs at the top of every walk, under
    either engine, before any ES-CFG node is entered — so an injected
    exception or delay fires identically in the compiled and interpreted
    walks.  [None] removes it ({!reset} also clears it). *)

exception Deadline_exceeded of int
(** Raised mid-walk by the deadline watchdog; carries the step budget.
    Through {!interposer} it is contained like any other internal
    exception — an [Internal_error] anomaly plus the [on_internal_error]
    policy verdict — so an overrunning walk degrades to a per-interaction
    containment event, never a hang.  Only {!bench_walk} lets it
    propagate. *)

val set_deadline : t -> int option -> unit
(** Arm (or disarm, with [None]) the watchdog: a walk visiting more than
    the given number of steps — the same deterministic per-step counter
    [walk_limit] uses, identical under both engines — aborts with
    {!Deadline_exceeded}.  Unlike [walk_limit] (a trained-behaviour bound
    whose trip is a conditional-jump anomaly about the {e guest}), the
    deadline is an availability bound about the {e checker}: the fleet
    supervisor uses it so one hostile or degenerate interaction cannot
    stall a bulkhead.  The watchdog is checked first, so a budget at or
    below [walk_limit] fires; a budget above it never can, because the
    walk limit ends the walk first.  [Fleet.Vm] and [sedspec fleet
    --deadline] arm none by default.  Budgets must be >= 1.  The compiled
    walk compares each step once, with [min walk_limit deadline], and
    tests which one tripped only past it, so an armed watchdog costs no
    more per step than [None] (the default).  {!reset} disarms it. *)

val deadline : t -> int option

val deadline_overruns : t -> int
(** Walks aborted by the watchdog (monotone; survives
    {!drain_anomalies}, cleared by {!reset}). *)

val config : t -> config
val set_config : t -> config -> unit
val stats : t -> stats
val anomalies : t -> anomaly list
(** All anomalies so far, oldest first. *)

val drain_anomalies : t -> anomaly list
val resync : t -> unit
(** Re-initialise the shadow state from the live control structure. *)

(** Outcome of one {!heal} pass: shadow already matched; resynced after
    observing [n] divergent decision-relevant parameters; or divergence
    persists but the heal budget is spent. *)
type heal_result = Heal_clean | Heal_resynced of int | Heal_exhausted of int

val heal : t -> heal_result
(** Bounded self-healing: if {!shadow_matches_device} reports divergence,
    {!resync} — but at most 8 times per checker lifetime (until
    {!reset}), so a fault that re-corrupts the shadow on every
    interaction degrades to an explicit [Heal_exhausted] instead of
    masking itself forever.  Intended to run off the hot path (the remedy
    supervisor calls it once per clean tick). *)

val heals : t -> int
(** Resyncs performed by {!heal} since creation/{!reset}. *)

val reset : t -> unit
(** Return the checker to its just-attached state against the (already
    reset) live control structure: clears anomalies, statistics, command
    context, deferred/staged state and coverage wiring (the coverage, the
    edge seam and the record of what was recorded), and re-copies the
    shadow from the device arena.  The lazily-compiled walk form is kept.
    Lets the fuzzer recycle machine+checker pairs across replays. *)

val record_sync : t -> Devir.Program.bref -> (string * int64) list -> unit
(** Feed sync-point values captured from the device run (installed
    automatically by {!attach}). *)

val shadow_matches_device : t -> (string * int64 * int64) list
(** Diagnostic invariant: compare every {e decision-relevant} scalar
    parameter (branch influencers, index/counting parameters, function
    pointers) of the shadow device state against the live control
    structure.  Returns the mismatching (name, shadow, device) triples —
    empty after any benign interaction sequence.  Dependency-only fields
    may legitimately diverge: they can be computed from buffer content the
    volume rule deliberately leaves untracked. *)

val bench_walk : t -> handler:string -> params:(string * int64) list -> unit
(** Run one pre-execution walk (under the configured engine) and discard
    the result: no anomaly recording, no shadow commit, no interaction
    bookkeeping beyond [stats.nodes_walked].  For micro-benchmarks.  It
    overwrites the scratch copy, so it must not run between an
    interposer's [before] and [after]. *)

val shadow_snapshot : t -> bytes
(** Raw bytes of the shadow control structure (for differential tests). *)

(** {2 ES-CFG coverage}

    An accumulator of the ES-CFG nodes entered by walks and the ordered
    node pairs traversed consecutively in walk order.  Pairs span walk
    boundaries: the seam from one walk's last node to the next walk's
    first records, so an unseen {e ordering} of commands counts as new
    coverage even when every command path is individually known.  Both
    engines record identically, so the coverage-guided fuzzer can use it
    as feedback {e and} as part of its differential oracle.

    Coverage only grows, and it is keyed by [bref], so runs over
    different program versions can be unioned ({!coverage_absorb}).
    Recording costs a bit probe per node entered once warm: each checker
    keeps a dense record, over its program's block index, of the nodes
    and edges it has already put into the coverage installed now, and
    only a node or edge not in that record touches the coverage's
    tables.  The record (about [(n + n * n) / 8] bytes for [n] blocks;
    1,093 for the largest program) is allocated by the first
    {!set_coverage} with [Some], and {!set_coverage} and {!reset} clear
    it, so it never outlives the coverage it stands for.  Checkers that
    share one coverage each keep their own record and edge seam. *)

type coverage

val coverage_create : unit -> coverage
val coverage_node_count : coverage -> int
val coverage_edge_count : coverage -> int

val coverage_nodes : coverage -> Devir.Program.bref list
(** Covered nodes, sorted (deterministic regardless of walk order). *)

val coverage_edges : coverage -> (Devir.Program.bref * Devir.Program.bref) list
(** Covered edges (consecutive pairs in walk order, seams included),
    sorted. *)

val coverage_absorb : into:coverage -> coverage -> int
(** [coverage_absorb ~into c] merges [c] into [into]; returns the number
    of nodes plus edges that were new to [into]. *)

val set_coverage : t -> coverage option -> unit
(** Install (or remove) the accumulator every subsequent walk records
    into.  Resets the edge seam and clears the checker's record of what
    it recorded, on every call (also when one coverage replaces
    another). *)

val strategy_to_string : strategy -> string

val mode_to_string : mode -> string
(** ["protection"] or ["enhancement"]. *)

val engine_to_string : engine -> string
(** ["compiled"] or ["interpreted"]. *)

val pp_anomaly : Format.formatter -> anomaly -> unit
