(* Tests for the benchmark's quantile, self-time and count-comparison code. *)

let feq = Alcotest.float 1e-9

let test_quantile_interpolates () =
  let s = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.check feq "min" 1.0 (Stats.quantile s 0.0);
  Alcotest.check feq "max" 5.0 (Stats.quantile s 1.0);
  Alcotest.check feq "median" 3.0 (Stats.quantile s 0.5);
  Alcotest.check feq "q1" 2.0 (Stats.quantile s 0.25);
  Alcotest.check feq "between ranks" 1.4 (Stats.quantile s 0.1);
  Alcotest.check feq "single" 7.0 (Stats.quantile [| 7.0 |] 0.9)

let test_quantile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let test_median_unsorted () =
  Alcotest.check feq "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

(* Rounds of unequal work: the rate comes from the cost per unit, so a
   round doing twice the work in twice the time reads the same. *)
let test_quantile_rate () =
  let work = [| 10.0; 20.0; 10.0; 0.0; 10.0 |] in
  let cost = [| 1.0; 2.0; 3.0; 5.0; 1.6 |] in
  (* per unit: 0.1 0.1 0.3 (skipped) 0.16 -> sorted 0.1 0.1 0.16 0.3 *)
  Alcotest.check feq "q0" 10.0 (Stats.quantile_rate ~work ~cost ~q:0.0);
  Alcotest.check feq "median" (1.0 /. 0.13) (Stats.quantile_rate ~work ~cost ~q:0.5);
  Alcotest.check_raises "no work" (Invalid_argument "Stats.quantile_rate: no round did any work")
    (fun () -> ignore (Stats.quantile_rate ~work:[| 0.0 |] ~cost:[| 1.0 |] ~q:0.1))

(* op [0,100] > interaction [10,90] > before [10,30], interp [30,80],
   after [80,90]; a second op [100,130] with no children. *)
let spans () =
  ( [| 0; 10; 10; 30; 80; 100 |],
    [| 100; 90; 30; 80; 90; 130 |],
    [| -1; 0; 1; 1; 1; -1 |] )

let test_self_times () =
  let start, stop, parent = spans () in
  let self = Stats.self_times ~start ~stop ~parent 6 in
  Alcotest.(check (array int)) "self" [| 20; 0; 20; 50; 10; 30 |] self;
  Alcotest.(check int) "self-times add up to the roots" 130 (Array.fold_left ( + ) 0 self);
  Alcotest.(check (array int)) "first two spans" [| 20; 80 |]
    (Stats.self_times ~start ~stop ~parent 2)

let test_nesting () =
  let start, stop, parent = spans () in
  let ok = Stats.check_nesting ~start ~stop ~parent 6 in
  Alcotest.(check bool) "well formed" true (ok = Ok ());
  let bad f =
    let start, stop, parent = spans () in
    f start stop parent;
    Result.is_error (Stats.check_nesting ~start ~stop ~parent 6)
  in
  Alcotest.(check bool) "child outside parent" true (bad (fun _ stop _ -> stop.(4) <- 95));
  Alcotest.(check bool) "overlapping siblings" true (bad (fun start _ _ -> start.(3) <- 25));
  Alcotest.(check bool) "negative duration" true (bad (fun _ stop _ -> stop.(5) <- 90));
  Alcotest.(check bool) "parent after child" true (bad (fun _ _ parent -> parent.(1) <- 2))

let test_counts_roundtrip () =
  let c = [ ("ops", 12); ("minor_words", 4_000_000_123); ("deferred", 0) ] in
  Alcotest.(check (list (pair string int))) "roundtrip" c
    (Stats.counts_of_string (Stats.counts_to_string c));
  Alcotest.check_raises "malformed" (Failure "Stats.counts_of_string: bad line ops")
    (fun () -> ignore (Stats.counts_of_string "ops\n"))

let test_counts_diff () =
  let a = [ ("ops", 12); ("interactions", 900); ("deferred", 0) ] in
  Alcotest.(check int) "equal" 0 (List.length (Stats.counts_diff a a));
  let b = [ ("ops", 12); ("interactions", 901); ("major_gcs", 3) ] in
  let d = Stats.counts_diff a b in
  let show = function Some v -> string_of_int v | None -> "-" in
  Alcotest.(check (list string)) "mismatches in first-seen order"
    [ "interactions 900 901"; "deferred 0 -"; "major_gcs - 3" ]
    (List.map (fun (k, x, y) -> Printf.sprintf "%s %s %s" k (show x) (show y)) d)

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "interpolates" `Quick test_quantile_interpolates;
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "median" `Quick test_median_unsorted;
          Alcotest.test_case "quantile rate" `Quick test_quantile_rate;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "nesting" `Quick test_nesting;
        ] );
      ( "counts",
        [
          Alcotest.test_case "roundtrip" `Quick test_counts_roundtrip;
          Alcotest.test_case "diff" `Quick test_counts_diff;
        ] );
    ]
