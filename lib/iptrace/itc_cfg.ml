open Devir

type node = {
  bref : Program.bref;
  visits : int;
  taken : int;
  not_taken : int;
  itargets : (int64 * int) list;
  succs : (Program.bref * int) list;
}

(* Observation counts in first-seen order, each bumped in place. *)
type succ = { dst : int; mutable hits : int }
type target = { value : int64; mutable calls : int }

(* Per block index; a block with no visits is no node. *)
type t = {
  program : Program.t;
  visits : int array;
  taken : int array;
  not_taken : int array;
  targets : target list array;
  succs : succ list array;
  mutable prev : int;  (* the open window's last block, -1 before its first *)
}

let create program =
  let n = Program.block_count program in
  {
    program;
    visits = Array.make n 0;
    taken = Array.make n 0;
    not_taken = Array.make n 0;
    targets = Array.make n [];
    succs = Array.make n [];
    prev = -1;
  }

(* Top-level loops over block [i]'s list, so a bump allocates only a
   first sighting. *)
let rec bump_target t i v = function
  | c :: rest -> if Int64.equal c.value v then c.calls <- c.calls + 1 else bump_target t i v rest
  | [] -> t.targets.(i) <- t.targets.(i) @ [ { value = v; calls = 1 } ]

let rec bump_succ t i j = function
  | s :: rest -> if s.dst = j then s.hits <- s.hits + 1 else bump_succ t i j rest
  | [] -> t.succs.(i) <- t.succs.(i) @ [ { dst = j; hits = 1 } ]

let add_step t i (transfer : Decoder.transfer) =
  t.visits.(i) <- t.visits.(i) + 1;
  (match transfer with
  | Decoder.Taken -> t.taken.(i) <- t.taken.(i) + 1
  | Decoder.Not_taken -> t.not_taken.(i) <- t.not_taken.(i) + 1
  | Decoder.Call v -> bump_target t i v t.targets.(i)
  | Decoder.Fall | Decoder.Sw _ | Decoder.End -> ());
  if t.prev >= 0 then bump_succ t t.prev i t.succs.(t.prev);
  t.prev <- i

let add_window t packets =
  t.prev <- -1;
  Decoder.walk t.program packets ~on_step:(add_step t) ~on_close:(fun () -> t.prev <- -1)

let program t = t.program

let view t i =
  {
    bref = Program.bref_of_index t.program i;
    visits = t.visits.(i);
    taken = t.taken.(i);
    not_taken = t.not_taken.(i);
    itargets = List.map (fun c -> (c.value, c.calls)) t.targets.(i);
    succs = List.map (fun s -> (Program.bref_of_index t.program s.dst, s.hits)) t.succs.(i);
  }

let node t bref =
  match Program.index_of t.program bref with
  | i when t.visits.(i) > 0 -> Some (view t i)
  | _ | (exception Not_found) -> None

(* The nodes whose block satisfies [keep], in address order. *)
let select t keep =
  let acc = ref [] in
  for i = Program.block_count t.program - 1 downto 0 do
    if t.visits.(i) > 0 && keep (Program.block_of_index t.program i) then
      acc := view t i :: !acc
  done;
  !acc

let nodes t = select t (fun _ -> true)

let block_count t =
  Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 t.visits

let conditional_nodes t =
  select t (fun b -> match b.Block.term with Term.Branch _ -> true | _ -> false)

let indirect_nodes t =
  select t (fun b -> match b.Block.term with Term.Icall _ -> true | _ -> false)

let one_sided (n : node) =
  (n.taken = 0 && n.not_taken > 0) || (n.taken > 0 && n.not_taken = 0)

let edge_count t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let pp ppf t =
  Format.fprintf ppf "@[<v>ITC-CFG of %s: %d blocks, %d edges@,"
    (Program.name t.program) (block_count t) (edge_count t);
  List.iter
    (fun (n : node) ->
      Format.fprintf ppf "%a visits=%d" Program.pp_bref n.bref n.visits;
      if n.taken + n.not_taken > 0 then
        Format.fprintf ppf " T=%d N=%d" n.taken n.not_taken;
      if n.itargets <> [] then
        Format.fprintf ppf " targets={%s}"
          (String.concat ","
             (List.map (fun (v, c) -> Printf.sprintf "%Lx:%d" v c) n.itargets));
      Format.fprintf ppf "@,")
    (nodes t);
  Format.fprintf ppf "@]"
