(* The C stub behind [Monotonic_clock.now], declared here unboxed and
   noalloc so a clock read neither allocates nor depends on cross-module
   inlining. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())
let words () = int_of_float (Gc.minor_words ())

let k_op = 0
let k_interaction = 1
let k_before = 2
let k_interp = 3
let k_after = 4
let kind_names = [| "op"; "interaction"; "checker.before"; "interp"; "checker.after" |]

(* One round's spans.  The largest round (a pio step, four 512-byte
   transfers) records about 8.5k spans. *)
let capacity = 1 lsl 16
let kind = Array.make capacity 0
let start = Array.make capacity 0
let stop = Array.make capacity 0
let w_start = Array.make capacity 0
let w_stop = Array.make capacity 0
let parent = Array.make capacity (-1)
let op_of = Array.make capacity (-1)
let spans = ref 0
let overflow = ref false
let current = ref (-1)

let ops = ref 0
let current_op = ref (-1)
let round_start = ref 0
let enabled = ref false

let push k ~t ~w =
  let i = !spans in
  if i >= capacity then begin
    overflow := true;
    -1
  end
  else begin
    kind.(i) <- k;
    parent.(i) <- !current;
    op_of.(i) <- !current_op;
    start.(i) <- t;
    w_start.(i) <- w;
    spans := i + 1;
    i
  end

let finish i ~t ~w =
  if i >= 0 then begin
    stop.(i) <- t;
    w_stop.(i) <- w
  end

let op_begin () =
  current_op := !ops;
  incr ops;
  let w = words () in
  current := push k_op ~t:(now ()) ~w

let op_end () =
  let t = now () in
  let w = words () in
  let i = !current in
  finish i ~t ~w;
  if i >= 0 then current := parent.(i);
  current_op := -1

let wrap (ip : Vmm.Machine.interposer) =
  let ia = ref (-1) and mid = ref (-1) in
  {
    Vmm.Machine.before =
      (fun req ->
        let w0 = words () in
        let t0 = now () in
        let v = ip.Vmm.Machine.before req in
        let t1 = now () in
        let w1 = words () in
        let i = push k_interaction ~t:t0 ~w:w0 in
        ia := i;
        let b = push k_before ~t:t0 ~w:w0 in
        if b >= 0 then parent.(b) <- i;
        finish b ~t:t1 ~w:w1;
        (match v with
        | Vmm.Machine.Halt _ -> finish i ~t:t1 ~w:w1
        | Vmm.Machine.Allow | Vmm.Machine.Warn _ ->
          let d = push k_interp ~t:t1 ~w:w1 in
          if d >= 0 then parent.(d) <- i;
          mid := d);
        v);
    after =
      (fun req outcome ->
        let t0 = now () in
        let w0 = words () in
        finish !mid ~t:t0 ~w:w0;
        let v = ip.Vmm.Machine.after req outcome in
        let t1 = now () in
        let w1 = words () in
        let a = push k_after ~t:t0 ~w:w0 in
        if a >= 0 then parent.(a) <- !ia;
        finish a ~t:t1 ~w:w1;
        finish !ia ~t:t1 ~w:w1;
        v);
  }

let start_round () =
  spans := 0;
  ops := 0;
  overflow := false;
  current := -1;
  current_op := -1;
  round_start := now ()

type totals = {
  mutable rounds : int;
  mutable round_ns : float;
  self_ns : float array;
  self_words : float array;
  mutable interactions : int;
  mutable errors : string list;
}

let create_totals () =
  let kinds = Array.length kind_names in
  {
    rounds = 0;
    round_ns = 0.0;
    self_ns = Array.make kinds 0.0;
    self_words = Array.make kinds 0.0;
    interactions = 0;
    errors = [];
  }

let end_round tot =
  let round_ns = now () - !round_start in
  let n = !spans in
  let error msg = tot.errors <- msg :: tot.errors in
  if !overflow then error "span buffer overflow"
  else
    match Stats.check_nesting ~start ~stop ~parent n with
    | Error msg -> error msg
    | Ok () ->
      let self = Stats.self_times ~start ~stop ~parent n in
      let self_w = Stats.self_times ~start:w_start ~stop:w_stop ~parent n in
      tot.rounds <- tot.rounds + 1;
      tot.round_ns <- tot.round_ns +. float_of_int round_ns;
      let stray = ref 0 in
      for i = 0 to n - 1 do
        let k = kind.(i) in
        tot.self_ns.(k) <- tot.self_ns.(k) +. float_of_int self.(i);
        tot.self_words.(k) <- tot.self_words.(k) +. float_of_int self_w.(i);
        if k = k_interaction then tot.interactions <- tot.interactions + 1;
        if op_of.(i) < 0 then incr stray
      done;
      if !stray > 0 then error (Printf.sprintf "%d spans outside any op" !stray)

let write path ~setup =
  let oc = open_out path in
  List.iter
    (fun (name, t0, t1) -> Printf.fprintf oc "-\t%s\t%.6f\t%.6f\t-1\t-1\t0\t0\n" name t0 t1)
    setup;
  for i = 0 to !spans - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n" i kind_names.(kind.(i))
      start.(i) stop.(i) parent.(i) op_of.(i) w_start.(i) w_stop.(i)
  done;
  close_out oc
