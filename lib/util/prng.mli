(** Deterministic pseudo-random number generation.

    All randomized workloads in this repository draw from this splitmix64
    generator so that every experiment is reproducible from its seed.  The
    generator is the public-domain splitmix64 of Steele, Lea and Flood, which
    has a 64-bit state and passes BigCrush.  A draw allocates nothing
    inside this module: {!int}, {!int_in}, {!bool}, {!chance} and {!pick}
    allocate no minor word, and {!bytes} only its result.  {!next} and
    {!float} box the value they return. *)

type t
(** Mutable generator state: the 64-bit state in 8 bytes. *)

val create : int64 -> t
(** [create seed] returns a fresh generator.  Distinct seeds give
    statistically independent streams. *)

val copy : t -> t
(** [copy t] duplicates the state so two consumers can replay the same
    stream. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit output and advances the state. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in \[0, bound).  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in \[lo, hi\] inclusive. *)

val bool : t -> bool
(** [bool t] returns a uniform boolean. *)

val chance : t -> float -> bool
(** [chance t p] returns [true] with probability [p]. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in \[0, bound). *)

val pick : t -> 'a array -> 'a
(** [pick t arr] returns a uniform element of [arr].  [arr] must be
    non-empty. *)

val pick_list : t -> 'a list -> 'a
(** [pick_list t l] returns a uniform element of [l].  [l] must be
    non-empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)

val bytes : t -> int -> bytes
(** [bytes t n] returns [n] uniform random bytes: byte [i] is what the
    [i]th [int t 256] would return. *)

val split : t -> t
(** [split t] derives an independent child generator, advancing [t]. *)
