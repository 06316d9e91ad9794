(** Seeded retry with exponential backoff and deterministic jitter.

    Transient operations (a spec-cache build racing an injected fault, a
    CRC-failing persisted-spec load) are retried under an exponential
    delay schedule.  Delays are {e logical units}, not wall-clock sleeps:
    the fleet supervisor accounts them in its report instead of blocking
    a domain, which keeps every run bit-identical for any [--jobs] and
    lets tests assert the exact schedule.

    The nominal delay of attempt 0 is 1 unit; it doubles per attempt
    and saturates at 64.  Jitter of up to 25% either way is drawn from
    the splitmix64 generator keyed by [(seed, attempt)], so the whole
    schedule is a pure function of the seed: the same seed replays the
    same delays, and distinct seeds de-synchronise retry storms.  Since
    the jitter is at most 1/3, the jittered delays are monotone
    (non-strict) in the attempt number while the nominal delay is still
    doubling — the qcheck properties in [test_util.ml] pin both
    guarantees. *)

val nominal : attempt:int -> int
(** [min 64 (2^attempt)], saturating (never overflows). *)

val delay : seed:int64 -> attempt:int -> int
(** The jittered delay before retry number [attempt] (0-based): a
    deterministic value in [[nominal * 0.75, nominal * 1.25]] (rounded
    to the nearest unit, never negative), depending only on [seed] and
    [attempt]. *)

type 'e failure = {
  error : 'e;  (** The last attempt's error. *)
  attempts : int;  (** Attempts performed (= [max_attempts]). *)
  delay_total : int;  (** Logical delay units spent between attempts. *)
}

val retry :
  seed:int64 ->
  max_attempts:int ->
  (attempt:int -> ('a, 'e) result) ->
  ('a * int, 'e failure) result
(** [retry ~seed ~max_attempts f] calls [f ~attempt:0], [f ~attempt:1],
    … until one returns [Ok] or [max_attempts] (>= 1) attempts are
    exhausted.  On success returns the value and the logical delay spent
    waiting before it; on failure, the last error with the attempt and
    delay accounting.  Exceptions raised by [f] are not caught — wrap
    fallible operations into [result] at the call site so the retry
    policy stays visible. *)
