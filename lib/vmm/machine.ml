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
  binding : device_binding;
  interp : Interp.t;
  mutable interposer : interposer option;
}

type t = {
  ram : Guest_mem.t;
  irq : Irq.t;
  devices : (string, attached) Hashtbl.t;
  mutable order : string list;
  mutable halted : bool;
  mutable halt_reason : string option;
  mutable warnings_rev : string list;
  mutable traps_rev : (string * Interp.Event.trap) list;
  vmexit_cost : int;
}

(* Burn a calibrated amount of CPU per dispatched I/O, standing in for the
   KVM exit + userspace dispatch that dominates per-access cost on a real
   host.  Volatile-ish accumulator so the loop is not optimised away. *)
let spin_sink = ref 0

let spin n =
  let acc = ref !spin_sink in
  for i = 1 to n do
    acc := (!acc + i) land 0xFFFFFF
  done;
  spin_sink := !acc

let create ?(ram_size = 16 * 1024 * 1024) ?(vmexit_cost = 2000) () =
  {
    ram = Guest_mem.create ram_size;
    irq = Irq.create ();
    devices = Hashtbl.create 8;
    order = [];
    halted = false;
    halt_reason = None;
    warnings_rev = [];
    traps_rev = [];
    vmexit_cost;
  }

let ram t = t.ram
let irq t = t.irq

let ranges_overlap (b1, l1) (b2, l2) =
  let e1 = Int64.add b1 (Int64.of_int l1) and e2 = Int64.add b2 (Int64.of_int l2) in
  Int64.compare b1 e2 < 0 && Int64.compare b2 e1 < 0

let attach t binding =
  let name = Devir.Program.name binding.program in
  if Hashtbl.mem t.devices name then
    invalid_arg (Printf.sprintf "Machine.attach: duplicate device %s" name);
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
  let hooks =
    {
      Interp.silent_hooks with
      Interp.on_irq =
        (fun up ->
          if up then Irq.raise_line t.irq name else Irq.lower_line t.irq name);
    }
  in
  let interp =
    Interp.create ~hooks ~program:binding.program ~arena:binding.arena
      ~guest:(Guest_mem.access t.ram) ()
  in
  Irq.register t.irq name;
  Hashtbl.add t.devices name { binding; interp; interposer = None };
  t.order <- t.order @ [ name ]

let get t name =
  match Hashtbl.find_opt t.devices name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Machine: unknown device %s" name)

let set_interposer t name ip = (get t name).interposer <- Some ip
let clear_interposer t name = (get t name).interposer <- None
let interposer_of t name = (get t name).interposer
let interp_of t name = (get t name).interp
let device_names t = t.order

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
    if t.vmexit_cost > 0 then spin t.vmexit_cost;
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

let in_range addr (base, len) =
  Int64.unsigned_compare addr base >= 0
  && Int64.unsigned_compare addr (Int64.add base (Int64.of_int len)) < 0

let find_route t ~mmio addr =
  let pick (a : attached) =
    let ranges = if mmio then a.binding.mmio else a.binding.pmio in
    List.find_opt (in_range addr) ranges |> Option.map (fun r -> (a, r))
  in
  List.fold_left
    (fun acc name ->
      match acc with Some _ -> acc | None -> pick (Hashtbl.find t.devices name))
    None t.order

let access t ~mmio ~write ~addr ~size ~data =
  match find_route t ~mmio addr with
  | None -> Io_no_device
  | Some (a, (base, _len)) -> (
    let handler =
      if mmio then
        if write then a.binding.mmio_write else a.binding.mmio_read
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
      dispatch t a
        { device = Devir.Program.name a.binding.program; handler; params })

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
