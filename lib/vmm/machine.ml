type request = {
  device : string;
  handler : string;
  params : (string * int64) list;
}

type verdict = Allow | Warn of string | Halt of string

type interposer = {
  before : request -> verdict;
  after : request -> Interp.Event.outcome -> verdict;
}

let strength = function Allow -> 0 | Warn _ -> 1 | Halt _ -> 2

(* Between equals the first argument, the earlier layer, wins. *)
let strongest a b = if strength b > strength a then b else a

(* Every layer sees the request, in the order the layers were added; the
   [let]s fix that order whatever OCaml's argument evaluation order. *)
let rec before_all layers req =
  match layers with
  | [] -> Allow
  | ip :: rest ->
    let v = ip.before req in
    let rest_v = before_all rest req in
    strongest v rest_v

let rec after_all layers req outcome =
  match layers with
  | [] -> Allow
  | ip :: rest ->
    let v = ip.after req outcome in
    let rest_v = after_all rest req outcome in
    strongest v rest_v

let compose = function
  | [] -> None
  | [ ip ] -> Some ip
  | layers ->
    Some
      {
        before = (fun req -> before_all layers req);
        after = (fun req outcome -> after_all layers req outcome);
      }

type io_result =
  | Io_ok of int64 option
  | Io_blocked of string
  | Io_fault of Interp.Event.trap
  | Io_no_device
  | Io_vm_halted

type device_binding = {
  program : Devir.Program.t;
  arena : Devir.Arena.t;
  pmio : (int64 * int) list;
  pmio_read : string option;
  pmio_write : string option;
  mmio : (int64 * int) list;
  mmio_read : string option;
  mmio_write : string option;
}

type attached = {
  name : string;
  binding : device_binding;
  interp : Interp.t;
  mutable layers : interposer ref list;
      (* In the order they were added.  Each layer has its own cell, which
         its remover finds by physical identity. *)
  mutable interposer : interposer option;  (* [layers] composed *)
}

type t = {
  ram : Guest_mem.t;
  irq : Irq.t;
  devices : (string, attached) Hashtbl.t;
  mutable order : attached list;  (* in attach order: routing's search order *)
  mutable halted : bool;
  mutable halt_reason : string option;
  mutable warnings_rev : string list;
  mutable traps_rev : (string * Interp.Event.trap) list;
  mutable exits : int;
}

let create ?(ram_size = 16 * 1024 * 1024) () =
  {
    ram = Guest_mem.create ram_size;
    irq = Irq.create ();
    devices = Hashtbl.create 8;
    order = [];
    halted = false;
    halt_reason = None;
    warnings_rev = [];
    traps_rev = [];
    exits = 0;
  }

let ram t = t.ram
let irq t = t.irq
let exits t = t.exits

(* Address arithmetic is unsigned.  [addr - base] is the offset into the
   range whatever the two addresses are, so the test holds for a range
   that ends at the top of the 64-bit space, where [base + len] wraps
   to 0. *)
let in_range addr base len =
  len > 0 && Int64.unsigned_compare (Int64.sub addr base) (Int64.of_int len) < 0

(* Two ranges that fit the address space overlap exactly when one starts
   inside the other. *)
let ranges_overlap (b1, l1) (b2, l2) =
  (in_range b2 b1 l1 && l2 > 0) || (in_range b1 b2 l2 && l1 > 0)

(* The last address of a non-empty range must not wrap past the top. *)
let range_fits (base, len) =
  len <= 0
  || Int64.unsigned_compare (Int64.add base (Int64.of_int (len - 1))) base >= 0

let attach t binding =
  let name = Devir.Program.name binding.program in
  if Hashtbl.mem t.devices name then
    invalid_arg (Printf.sprintf "Machine.attach: duplicate device %s" name);
  List.iter
    (fun (kind, ranges) ->
      if not (List.for_all range_fits ranges) then
        invalid_arg
          (Printf.sprintf "Machine.attach: %s range of %s runs past the top of the address space"
             kind name))
    [ ("pmio", binding.pmio); ("mmio", binding.mmio) ];
  Hashtbl.iter
    (fun other a ->
      let clash kind mine theirs =
        List.iter
          (fun r1 ->
            List.iter
              (fun r2 ->
                if ranges_overlap r1 r2 then
                  invalid_arg
                    (Printf.sprintf "Machine.attach: %s range of %s overlaps %s"
                       kind name other))
              theirs)
          mine
      in
      clash "pmio" binding.pmio a.binding.pmio;
      clash "mmio" binding.mmio a.binding.mmio)
    t.devices;
  let interp =
    Interp.create ~program:binding.program ~arena:binding.arena
      ~guest:(Guest_mem.access t.ram) ()
  in
  let (_ : unit -> unit) =
    Interp.add_hooks interp
      {
        Interp.silent_hooks with
        Interp.on_irq =
          (fun up ->
            if up then Irq.raise_line t.irq name else Irq.lower_line t.irq name);
      }
  in
  Irq.register t.irq name;
  let a = { name; binding; interp; layers = []; interposer = None } in
  Hashtbl.add t.devices name a;
  t.order <- t.order @ [ a ]

let get t name =
  match Hashtbl.find_opt t.devices name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Machine: unknown device %s" name)

let set_layers a layers =
  a.layers <- layers;
  a.interposer <- compose (List.map ( ! ) layers)

let add_interposer t name ip =
  let a = get t name in
  let cell = ref ip in
  set_layers a (a.layers @ [ cell ]);
  fun () -> set_layers a (List.filter (fun c -> c != cell) a.layers)

let set_interposer t name ip = set_layers (get t name) [ ref ip ]
let interposer_of t name = (get t name).interposer
let interp_of t name = (get t name).interp
let device_names t = List.map (fun a -> a.name) t.order

let halted t = t.halted
let halt_reason t = t.halt_reason

let resume t =
  t.halted <- false;
  t.halt_reason <- None

let warnings t = List.rev t.warnings_rev
let clear_warnings t = t.warnings_rev <- []
let last_traps t = t.traps_rev
let clear_traps t = t.traps_rev <- []

let reboot t ~device =
  let interp = interp_of t device in
  resume t;
  clear_warnings t;
  clear_traps t;
  Guest_mem.clear t.ram;
  Guest_mem.set_read_fault t.ram None;
  Devir.Arena.reset (Interp.arena interp);
  Interp.set_response_fault interp None;
  Irq.lower_line t.irq device;
  Irq.clear_counts t.irq

let apply_verdict t v =
  match v with
  | Allow -> ()
  | Warn w -> t.warnings_rev <- w :: t.warnings_rev
  | Halt reason ->
    t.halted <- true;
    t.halt_reason <- Some reason

let dispatch t (a : attached) request =
  if t.halted then Io_vm_halted
  else begin
    t.exits <- t.exits + 1;
    let blocked =
      match a.interposer with
      | None -> None
      | Some ip -> (
        match ip.before request with
        | Allow -> None
        | Warn w ->
          t.warnings_rev <- w :: t.warnings_rev;
          None
        | Halt reason ->
          t.halted <- true;
          t.halt_reason <- Some reason;
          Some reason)
    in
    match blocked with
    | Some reason -> Io_blocked reason
    | None ->
      let outcome =
        Interp.run a.interp ~handler:request.handler ~params:request.params
      in
      (match a.interposer with
      | None -> ()
      | Some ip -> apply_verdict t (ip.after request outcome));
      (match outcome with
      | Interp.Event.Done { response } -> Io_ok response
      | Interp.Event.Trapped trap ->
        t.traps_rev <- (request.device, trap) :: t.traps_rev;
        Io_fault trap)
  end

let deliver t (a : attached) ~mmio ~write ~addr ~base ~size ~data =
  let handler =
    if mmio then if write then a.binding.mmio_write else a.binding.mmio_read
    else if write then a.binding.pmio_write
    else a.binding.pmio_read
  in
  match handler with
  | None -> Io_no_device
  | Some handler ->
    let params =
      [
        ("addr", addr);
        ("offset", Int64.sub addr base);
        ("size", Int64.of_int size);
        ("data", data);
      ]
    in
    dispatch t a { device = a.name; handler; params }

(* Routing walks the attached devices in attach order, and each one's
   ranges in order; the first range that holds [addr] takes the access.
   Plain recursion over the records: no lookup and no allocation. *)
let rec route t ~mmio ~write ~addr ~size ~data = function
  | [] -> Io_no_device
  | (a : attached) :: rest ->
    route_ranges t a rest ~mmio ~write ~addr ~size ~data
      (if mmio then a.binding.mmio else a.binding.pmio)

and route_ranges t a rest ~mmio ~write ~addr ~size ~data = function
  | [] -> route t ~mmio ~write ~addr ~size ~data rest
  | (base, len) :: ranges ->
    if in_range addr base len then deliver t a ~mmio ~write ~addr ~base ~size ~data
    else route_ranges t a rest ~mmio ~write ~addr ~size ~data ranges

let access t ~mmio ~write ~addr ~size ~data =
  route t ~mmio ~write ~addr ~size ~data t.order

let io_read t ~port ~size =
  access t ~mmio:false ~write:false ~addr:port ~size ~data:0L

let io_write t ~port ~size ~data =
  access t ~mmio:false ~write:true ~addr:port ~size ~data

let mmio_read t ~addr ~size =
  access t ~mmio:true ~write:false ~addr ~size ~data:0L

let mmio_write t ~addr ~size ~data =
  access t ~mmio:true ~write:true ~addr ~size ~data

let inject t ~device ~handler ~params =
  let a = get t device in
  dispatch t a { device; handler; params }
