(* The delay schedule: attempt 0 waits [base] units nominally, each later
   attempt twice the one before, saturating at [cap]; the jittered delay
   lies within [jitter] of the nominal either way. *)
let base = 1
let cap = 64
let jitter = 0.25

let nominal ~attempt =
  if attempt < 0 then invalid_arg "Backoff.nominal: attempt must be >= 0";
  (* [base lsl attempt] overflows past 62 doublings; saturate first. *)
  if attempt >= 62 then cap else min cap (base lsl attempt)

(* Key the jitter stream by (seed, attempt) through one splitmix step per
   component: the delay for attempt k never depends on whether attempts
   0..k-1 drew their jitter, so schedules compose (a caller may probe a
   single attempt's delay without replaying the prefix). *)
let delay ~seed ~attempt =
  let n = nominal ~attempt in
  let key = Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (attempt + 1))) in
  let u = Prng.float (Prng.create key) 1.0 in
  (* u in [0,1) -> offset in [-jitter, +jitter) of the nominal. *)
  let d = float_of_int n *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0))) in
  max 0 (int_of_float (Float.round d))

type 'e failure = { error : 'e; attempts : int; delay_total : int }

let retry ~seed ~max_attempts f =
  if max_attempts < 1 then invalid_arg "Backoff.retry: max_attempts must be >= 1";
  let rec go attempt spent =
    match f ~attempt with
    | Ok v -> Ok (v, spent)
    | Error e ->
      if attempt + 1 >= max_attempts then
        Error { error = e; attempts = attempt + 1; delay_total = spent }
      else go (attempt + 1) (spent + delay ~seed ~attempt)
  in
  go 0 0
