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

type t = {
  name : string;
  layout : Layout.t;
  code_base : int64;
  callbacks : (int64 * callback) list;
  handlers : handler list;
  by_name : (string, handler) Hashtbl.t;
  block_index : (string * string, Block.t * int64) Hashtbl.t;
  by_address : (int64, bref) Hashtbl.t;
  block_count : int;
}

let make ~name ~layout ?(code_base = 0x40_0000L) ?(callbacks = []) handlers =
  let by_name = Hashtbl.create 8 in
  let block_index = Hashtbl.create 64 in
  let by_address = Hashtbl.create 64 in
  let counter = ref 0 in
  List.iter
    (fun h ->
      if Hashtbl.mem by_name h.hname then
        invalid_arg (Printf.sprintf "Program.make: duplicate handler %s" h.hname);
      Hashtbl.add by_name h.hname h;
      List.iter
        (fun (b : Block.t) ->
          let addr = Int64.add code_base (Int64.of_int (16 * !counter)) in
          incr counter;
          if Hashtbl.mem block_index (h.hname, b.label) then
            invalid_arg
              (Printf.sprintf "Program.make: duplicate block %s/%s" h.hname
                 b.label);
          Hashtbl.add block_index (h.hname, b.label) (b, addr);
          Hashtbl.add by_address addr { handler = h.hname; label = b.label })
        h.blocks)
    handlers;
  {
    name;
    layout;
    code_base;
    callbacks;
    handlers;
    by_name;
    block_index;
    by_address;
    block_count = !counter;
  }

let name t = t.name
let layout t = t.layout
let code_base t = t.code_base
let handlers t = t.handlers
let callbacks t = t.callbacks

let find_handler t hname =
  match Hashtbl.find_opt t.by_name hname with
  | Some h -> h
  | None -> raise Not_found

let find_block t (r : bref) =
  match Hashtbl.find_opt t.block_index (r.handler, r.label) with
  | Some (b, _) -> b
  | None -> raise Not_found

let find_callback t v = List.assoc_opt v t.callbacks

let address_of t (r : bref) =
  match Hashtbl.find_opt t.block_index (r.handler, r.label) with
  | Some (_, addr) -> addr
  | None -> raise Not_found

let block_at t addr = Hashtbl.find_opt t.by_address addr

let code_range t =
  (t.code_base, Int64.add t.code_base (Int64.of_int (16 * t.block_count)))

let block_count t = t.block_count

let iter_blocks t f =
  List.iter
    (fun h ->
      List.iter
        (fun (b : Block.t) -> f { handler = h.hname; label = b.label } b)
        h.blocks)
    t.handlers

let pp_bref ppf (r : bref) = Format.fprintf ppf "%s/%s" r.handler r.label
let bref_to_string r = Format.asprintf "%a" pp_bref r
let bref_equal (a : bref) b = a = b
let bref_compare (a : bref) b = Stdlib.compare a b
