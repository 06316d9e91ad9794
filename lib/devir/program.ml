type callback_action =
  | Raise_irq_line
  | Lower_irq_line
  | Run_handler of string
  | Noop

type callback = { cb_name : string; action : callback_action }

type handler = {
  hname : string;
  params : string list;
  blocks : Block.t list;
}

type bref = { handler : string; label : string }

(* The dense block index: block [i] sits at [code_base + 16 * i].  Every
   array is filled once by [make] and never written again. *)
type t = {
  name : string;
  layout : Layout.t;
  code_base : int64;
  callbacks : (int64 * callback) list;
  handlers : handler list;
  by_name : (string, handler) Hashtbl.t;
  brefs : bref array;
  blocks : Block.t array;
  succs : int array array;
      (* per block, in [Term.successors] order; [-1]: the label names no
         block of the handler *)
  index : (bref, int) Hashtbl.t;
  entries : (string, int) Hashtbl.t;  (* handler -> entry index, -1 if empty *)
}

let make ~name ~layout ?(code_base = 0x40_0000L) ?(callbacks = []) handlers =
  let by_name = Hashtbl.create 8 in
  let index = Hashtbl.create 64 in
  let located = ref [] in
  List.iter
    (fun h ->
      if Hashtbl.mem by_name h.hname then
        invalid_arg (Printf.sprintf "Program.make: duplicate handler %s" h.hname);
      Hashtbl.add by_name h.hname h;
      List.iter
        (fun (b : Block.t) ->
          let bref = { handler = h.hname; label = b.label } in
          if Hashtbl.mem index bref then
            invalid_arg
              (Printf.sprintf "Program.make: duplicate block %s/%s" h.hname
                 b.label);
          Hashtbl.add index bref (Hashtbl.length index);
          located := (bref, b) :: !located)
        h.blocks)
    handlers;
  let located = Array.of_list (List.rev !located) in
  let brefs = Array.map fst located and blocks = Array.map snd located in
  let succs =
    Array.map
      (fun ((at : bref), (b : Block.t)) ->
        Array.of_list
          (List.map
             (fun label ->
               Option.value ~default:(-1)
                 (Hashtbl.find_opt index { handler = at.handler; label }))
             (Term.successors b.term)))
      located
  in
  let entries = Hashtbl.create 8 in
  List.iter
    (fun h ->
      Hashtbl.replace entries h.hname
        (match h.blocks with
        | b :: _ -> Hashtbl.find index { handler = h.hname; label = b.label }
        | [] -> -1))
    handlers;
  { name; layout; code_base; callbacks; handlers; by_name; brefs; blocks; succs; index; entries }

let name t = t.name
let layout t = t.layout
let code_base t = t.code_base
let handlers t = t.handlers
let callbacks t = t.callbacks

let find_handler t hname =
  match Hashtbl.find_opt t.by_name hname with
  | Some h -> h
  | None -> raise Not_found

let index_of t (r : bref) = Hashtbl.find t.index r
let find_block t r = t.blocks.(index_of t r)
let find_callback t v = List.assoc_opt v t.callbacks
let address_of t r = Int64.add t.code_base (Int64.of_int (16 * index_of t r))
let block_count t = Array.length t.blocks

let index_at t addr =
  let off = Int64.sub addr t.code_base in
  if Int64.rem off 16L <> 0L then -1
  else
    let i = Int64.div off 16L in
    if i >= 0L && i < Int64.of_int (block_count t) then Int64.to_int i else -1

let block_at t addr =
  match index_at t addr with -1 -> None | i -> Some t.brefs.(i)

let bref_of_index t i = t.brefs.(i)
let block_of_index t i = t.blocks.(i)

let succ_index t i k =
  match t.succs.(i).(k) with -1 -> raise Not_found | j -> j

let entry_index t hname = Hashtbl.find t.entries hname

let code_range t =
  (t.code_base, Int64.add t.code_base (Int64.of_int (16 * block_count t)))

let iter_blocks t f = Array.iteri (fun i b -> f t.brefs.(i) b) t.blocks

let pp_bref ppf (r : bref) = Format.fprintf ppf "%s/%s" r.handler r.label
let bref_to_string r = Format.asprintf "%a" pp_bref r
let bref_equal (a : bref) b = a = b
let bref_compare (a : bref) b = Stdlib.compare a b
