let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let h = Float.min 1.0 (Float.max 0.0 q) *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (lo + 1) (n - 1) in
  sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a = quantile (sorted a) 0.5

let quantile_rate ~work ~cost ~q =
  let per_unit =
    Array.to_list (Array.mapi (fun i w -> (w, cost.(i))) work)
    |> List.filter_map (fun (w, c) -> if w > 0.0 then Some (c /. w) else None)
    |> Array.of_list
  in
  if Array.length per_unit = 0 then
    invalid_arg "Stats.quantile_rate: no round did any work";
  1.0 /. quantile (sorted per_unit) q

let self_times ~start ~stop ~parent n =
  let self = Array.init n (fun i -> stop.(i) - start.(i)) in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (stop.(i) - start.(i))
  done;
  self

let check_nesting ~start ~stop ~parent n =
  (* End of the latest child seen so far, per parent: siblings arrive in
     start order, so each must begin at or after its predecessor ends. *)
  let last_end = Array.make n min_int in
  let rec go i =
    if i >= n then Ok ()
    else
      let p = parent.(i) in
      if stop.(i) < start.(i) then Error (Printf.sprintf "span %d ends before it starts" i)
      else if p >= i then Error (Printf.sprintf "span %d precedes its parent %d" i p)
      else if p >= 0 && (start.(i) < start.(p) || stop.(i) > stop.(p)) then
        Error (Printf.sprintf "span %d lies outside its parent %d" i p)
      else if p >= 0 && start.(i) < last_end.(p) then
        Error (Printf.sprintf "span %d overlaps its previous sibling" i)
      else begin
        if p >= 0 then last_end.(p) <- stop.(i);
        go (i + 1)
      end
  in
  go 0

type counts = (string * int) list

let counts_to_string cs =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) cs)

let counts_of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ k; v ] -> (
           match int_of_string_opt v with
           | Some v -> (k, v)
           | None -> failwith ("Stats.counts_of_string: bad value in " ^ l))
         | _ -> failwith ("Stats.counts_of_string: bad line " ^ l))

let counts_diff a b =
  let keys =
    List.fold_left
      (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
      [] (a @ b)
    |> List.rev
  in
  List.filter_map
    (fun k ->
      let va = List.assoc_opt k a and vb = List.assoc_opt k b in
      if va = vb then None else Some (k, va, vb))
    keys
