(** Pure arithmetic of the benchmark: quantiles of round times, span
    self-times, and the work-count records that must repeat exactly
    between runs of the same seed. *)

val quantile : float array -> float -> float
(** [quantile sorted q] for [q] in \[0, 1\], by linear interpolation
    between the closest ranks of an ascending array (the R-7 / numpy
    default).  Raises [Invalid_argument] on an empty array. *)

val sorted : float array -> float array
(** An ascending copy. *)

val median : float array -> float

val quantile_rate : work:float array -> cost:float array -> q:float -> float
(** Throughput from rounds: per round, cost per unit of work
    ([cost.(i) /. work.(i)]); the [q]-quantile of those per-unit costs,
    inverted.  Rounds of unequal work compare fairly, and one slow round
    moves the result no more than any other round.  Rounds with no work
    are skipped; raises [Invalid_argument] if none is left. *)

val self_times : start:int array -> stop:int array -> parent:int array -> int -> int array
(** [self_times ~start ~stop ~parent n]: for spans [0 .. n-1] (parents
    recorded before their children, [-1] for a root), each span's
    duration minus the durations of its direct children.  Works for any
    counter read at both ends of a span (clock, allocated words). *)

val check_nesting :
  start:int array -> stop:int array -> parent:int array -> int -> (unit, string) result
(** Every span ends after it starts, every parent precedes its children
    and encloses them, and siblings do not overlap — the conditions
    under which self-times add up to the root's duration. *)

type counts = (string * int) list
(** Named exact work counts, in a fixed order. *)

val counts_to_string : counts -> string
(** One ["name value"] line per count. *)

val counts_of_string : string -> counts
(** Inverse of {!counts_to_string}; raises [Failure] on a malformed
    line. *)

val counts_diff : counts -> counts -> (string * int option * int option) list
(** Names whose values differ between the two records (or that only
    one of them has), with both sides' values, in first-seen order.
    Empty when the records agree exactly. *)
