(* Mutation operators over interaction sequences.

   Mutants stay within the device's request surface: only handlers the
   program declares are injected, with every declared parameter bound, so
   device-side failures surface as traps/anomalies (findings) instead of
   malformed-dispatch noise.  Values are drawn from the classic
   boundary-value pool plus guest-memory addresses the DMA paths chase. *)

module Prng = Sedspec_util.Prng

(* The request surface of one device: its injectable handlers and the
   registered I/O ranges, so synthetic port/MMIO accesses carry coherent
   (addr, offset, size, data) tuples. *)
type io_point = { ip_handler : string; ip_base : int64; ip_len : int }

type surface = {
  sf_handlers : (string * string list) array;  (** (name, declared params). *)
  sf_io : io_point array;
  sf_io_handlers : (string, unit) Hashtbl.t;
  sf_dict : int64 array;
      (** Integer literals harvested from the device IR — switch cases
          (command opcodes), comparison constants, callback addresses.  The
          fuzzing-dictionary trick: magic values the device actually
          dispatches on, which uniform random bytes would almost never
          hit. *)
}

let rec expr_consts acc (e : Devir.Expr.t) =
  match e with
  | Devir.Expr.Const (v, _) -> v :: acc
  | Field _ | Buf_len _ | Param _ | Local _ -> acc
  | Buf_byte (_, e) | Not e -> expr_consts acc e
  | Binop (_, _, a, b) | Cmp (_, a, b) -> expr_consts (expr_consts acc a) b

let stmt_exprs (s : Devir.Stmt.t) =
  match s with
  | Devir.Stmt.Set_field (_, e) | Set_local (_, e) | Respond e -> [ e ]
  | Set_buf (_, a, b) -> [ a; b ]
  | Buf_fill (_, a, b, c) -> [ a; b; c ]
  | Copy_from_guest { buf_off; addr; len; _ }
  | Copy_to_guest { buf_off; addr; len; _ } ->
    [ buf_off; addr; len ]
  | Read_guest { addr; _ } -> [ addr ]
  | Write_guest { addr; value; _ } -> [ addr; value ]
  | Host_value _ | Note _ -> []

let harvest_dict program =
  let seen = Hashtbl.create 64 in
  let add v = Hashtbl.replace seen v () in
  Devir.Program.iter_blocks program (fun _ (b : Devir.Block.t) ->
      List.iter (fun s -> List.iter (fun e -> List.iter add (expr_consts [] e)) (stmt_exprs s)) b.stmts;
      (match b.term with
       | Devir.Term.Switch (_, cases, _) -> List.iter (fun (v, _) -> add v) cases
       | _ -> ());
      List.iter (fun e -> List.iter add (expr_consts [] e)) (Devir.Term.exprs b.term));
  List.iter (fun (addr, _) -> add addr) (Devir.Program.callbacks program);
  Hashtbl.fold (fun v () acc -> v :: acc) seen []
  |> List.sort Int64.compare |> Array.of_list

let surface_cache : (string * string, surface) Hashtbl.t = Hashtbl.create 8
let surface_lock = Mutex.create ()

let surface ~device ~version =
  let key = (device, Devices.Qemu_version.to_string version) in
  let finally () = Mutex.unlock surface_lock in
  Mutex.lock surface_lock;
  Fun.protect ~finally (fun () ->
      match Hashtbl.find_opt surface_cache key with
      | Some s -> s
      | None ->
        let dev = Exec.device_model ~device ~version in
        let binding = dev.Devices.Device.make_binding () in
        let handlers =
          Devir.Program.handlers dev.Devices.Device.program
          |> List.map (fun (h : Devir.Program.handler) ->
                 (h.Devir.Program.hname, h.params))
          |> Array.of_list
        in
        let io_handlers = Hashtbl.create 8 in
        let points =
          List.concat_map
            (fun (handler, ranges) ->
              match handler with
              | None -> []
              | Some h ->
                Hashtbl.replace io_handlers h ();
                List.map
                  (fun (base, len) -> { ip_handler = h; ip_base = base; ip_len = len })
                  ranges)
            [
              (binding.Vmm.Machine.pmio_read, binding.pmio);
              (binding.pmio_write, binding.pmio);
              (binding.mmio_read, binding.mmio);
              (binding.mmio_write, binding.mmio);
            ]
          |> Array.of_list
        in
        let s =
          {
            sf_handlers = handlers;
            sf_io = points;
            sf_io_handlers = io_handlers;
            sf_dict = harvest_dict dev.Devices.Device.program;
          }
        in
        Hashtbl.replace surface_cache key s;
        s)

(* --- Value pools ------------------------------------------------------- *)

let interesting : int64 array =
  [|
    0L; 1L; 2L; 3L; 4L; 7L; 8L; 15L; 16L; 31L; 32L; 63L; 64L; 127L; 128L;
    255L; 256L; 511L; 512L; 1023L; 1024L; 4095L; 4096L; 0x7FFFL; 0x8000L;
    0xFFFFL; 0x10000L; 0x7FFFFFFFL; 0x80000000L; 0xFFFFFFFFL; 0x100000000L;
    0x7FFFFFFFFFFFFFFFL; 0x8000000000000000L; -1L (* 0xFFFF..FF *);
  |]

(* Guest addresses the workload drivers actually stage data at sit below
   1 MiB; mutants mostly stay there so DMA chases resolve, with the
   occasional wild pointer. *)
let guest_addr rng =
  if Prng.chance rng 0.9 then Int64.of_int (Prng.int rng 0xA0000 land lnot 3)
  else Prng.pick rng interesting

let contains name sub =
  let n = String.length name and m = String.length sub in
  let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
  go 0

let looks_like_addr name =
  List.exists (contains name) [ "addr"; "ptr"; "base"; "page" ]

let looks_like_count name =
  List.exists (contains name) [ "size"; "len"; "count"; "num"; "idx"; "off" ]

(* Boundary values, device-dictionary magic values, or raw noise. *)
let payload_value rng s =
  if Array.length s.sf_dict > 0 && Prng.chance rng 0.4 then
    Prng.pick rng s.sf_dict
  else if Prng.chance rng 0.65 then Prng.pick rng interesting
  else Prng.next rng

let value_for rng s name =
  if looks_like_addr name then guest_addr rng
  else if looks_like_count name then Int64.of_int (Prng.int rng 4096)
  else payload_value rng s

let sizes = [| 1L; 2L; 4L |]

(* A coherent port/MMIO access: the four parameters the machine's access
   path would itself derive from (addr, size, data). *)
let synth_io rng s (p : io_point) =
  let off = Prng.int rng p.ip_len in
  Input.Req
    {
      handler = p.ip_handler;
      params =
        [
          ("addr", Int64.add p.ip_base (Int64.of_int off));
          ("offset", Int64.of_int off);
          ("size", Prng.pick rng sizes);
          ("data", payload_value rng s);
        ];
    }

let synth_req rng s =
  if Array.length s.sf_io > 0 && Prng.chance rng 0.6 then
    synth_io rng s (Prng.pick rng s.sf_io)
  else begin
    let name, params = Prng.pick rng s.sf_handlers in
    if Hashtbl.mem s.sf_io_handlers name && Array.length s.sf_io > 0 then
      (* Route I/O handlers through the coherent path anyway. *)
      synth_io rng s
        (Prng.pick rng
           (Array.of_list
              (List.filter (fun p -> p.ip_handler = name)
                 (Array.to_list s.sf_io))))
    else
      Input.Req
        { handler = name; params = List.map (fun n -> (n, value_for rng s n)) params }
  end

let synth_guest_write rng =
  let len = 1 + Prng.int rng 64 in
  Input.Guest_write
    { addr = guest_addr rng; data = Bytes.to_string (Prng.bytes rng len) }

(* Fault steps reuse the campaign's plan constants ({!Faultinj.Plan}):
   the same XOR masks, short-read limits and delay spins the harness
   replays, so corpus faults and campaign faults explore one shape
   space.  Clears are over-weighted so guest faults don't pile up and
   drown the replay in corruption noise. *)
let synth_fault rng =
  Input.Fault
    (match Prng.int rng 11 with
    | 0 -> Input.F_guest_xor (Prng.pick rng Faultinj.Plan.masks)
    | 1 -> Input.F_guest_short (Prng.pick rng Faultinj.Plan.limits)
    | 2 -> Input.F_walk_raise
    | 3 -> Input.F_walk_delay (Prng.pick rng Faultinj.Plan.spins)
    | 4 -> Input.F_resp_read (Prng.pick rng Faultinj.Plan.masks)
    | 5 -> Input.F_resp_store (Prng.pick rng Faultinj.Plan.masks)
    | 6 -> Input.F_resp_dma (Prng.pick rng Faultinj.Plan.resp_deltas)
    | 7 -> Input.F_resp_irq (Prng.pick rng Faultinj.Plan.bursts)
    | 8 -> Input.F_resp_clear
    | _ -> Input.F_guest_clear)

(* --- Step/sequence mutations ------------------------------------------- *)

let mutate_value rng s v =
  match Prng.int rng 5 with
  | 0 -> Prng.pick rng interesting
  | 1 -> Int64.add v (Int64.of_int (Prng.int_in rng (-16) 16))
  | 2 -> Int64.logxor v (Int64.shift_left 1L (Prng.int rng 64))
  | 3 when Array.length s.sf_dict > 0 -> Prng.pick rng s.sf_dict
  | _ -> Prng.next rng

let mutate_step rng s step =
  match step with
  | Input.Req { handler; params } ->
    if params = [] then synth_req rng s
    else begin
      let i = Prng.int rng (List.length params) in
      Input.Req
        {
          handler;
          params =
            List.mapi
              (fun j (k, v) -> if j = i then (k, mutate_value rng s v) else (k, v))
              params;
        }
    end
  | Input.Guest_write { addr; data } -> (
    match Prng.int rng 4 with
    | 0 when String.length data > 0 ->
      (* Randomise one byte. *)
      let b = Bytes.of_string data in
      let i = Prng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Prng.int rng 256));
      Input.Guest_write { addr; data = Bytes.to_string b }
    | 1 -> Input.Guest_write { addr = mutate_value rng s addr; data }
    | 2 when String.length data > 1 ->
      (* Truncate. *)
      let keep = 1 + Prng.int rng (String.length data - 1) in
      Input.Guest_write { addr; data = String.sub data 0 keep }
    | _ ->
      let extra = Bytes.to_string (Prng.bytes rng (1 + Prng.int rng 16)) in
      Input.Guest_write { addr; data = data ^ extra })
  | Input.Fault f -> (
    match f with
    | Input.F_guest_xor mask when Prng.chance rng 0.5 ->
      Input.Fault (Input.F_guest_xor (mutate_value rng s mask))
    | Input.F_guest_short limit when Prng.chance rng 0.5 ->
      Input.Fault (Input.F_guest_short (mutate_value rng s limit))
    | Input.F_resp_read mask when Prng.chance rng 0.5 ->
      Input.Fault (Input.F_resp_read (mutate_value rng s mask))
    | Input.F_resp_store mask when Prng.chance rng 0.5 ->
      Input.Fault (Input.F_resp_store (mutate_value rng s mask))
    | Input.F_resp_dma delta when Prng.chance rng 0.5 ->
      Input.Fault (Input.F_resp_dma (delta + Prng.int_in rng (-64) 64))
    | _ -> synth_fault rng)

let splice a b ~at_a ~at_b =
  Array.append (Array.sub a 0 at_a) (Array.sub b at_b (Array.length b - at_b))

let one_mutation rng s ~pool steps =
  let n = Array.length steps in
  if n = 0 then [| synth_req rng s |]
  else
    match Prng.int rng 9 with
    | 0 when n > 1 ->
      (* Remove a step. *)
      let i = Prng.int rng n in
      Array.init (n - 1) (fun j -> if j < i then steps.(j) else steps.(j + 1))
    | 1 ->
      (* Duplicate a step in place. *)
      let i = Prng.int rng n in
      Array.init (n + 1) (fun j ->
          if j <= i then steps.(j) else steps.(j - 1))
    | 2 when n > 1 ->
      (* Swap two steps. *)
      let out = Array.copy steps in
      let i = Prng.int rng n and j = Prng.int rng n in
      let t = out.(i) in
      out.(i) <- out.(j);
      out.(j) <- t;
      out
    | 3 when n > 1 ->
      (* Truncate the tail. *)
      Array.sub steps 0 (1 + Prng.int rng (n - 1))
    | 4 | 5 ->
      (* Mutate one step's payload. *)
      let out = Array.copy steps in
      let i = Prng.int rng n in
      out.(i) <- mutate_step rng s out.(i);
      out
    | 6 ->
      (* Insert a synthetic request, guest write, or scheduled fault. *)
      let i = Prng.int rng (n + 1) in
      let fresh =
        if Prng.chance rng 0.15 then synth_fault rng
        else if Prng.chance rng 0.75 then synth_req rng s
        else synth_guest_write rng
      in
      Array.init (n + 1) (fun j ->
          if j < i then steps.(j) else if j = i then fresh else steps.(j - 1))
    | 7 when Array.length pool > 0 ->
      (* Crossover with another corpus member. *)
      let other = (Prng.pick rng pool : Input.t).steps in
      if Array.length other = 0 then steps
      else
        splice steps other
          ~at_a:(Prng.int rng (n + 1))
          ~at_b:(Prng.int rng (Array.length other))
    | _ ->
      let out = Array.copy steps in
      let i = Prng.int rng n in
      out.(i) <- mutate_step rng s out.(i);
      out

let mutate ~rng ~max_steps ~pool (parent : Input.t) =
  let s = surface ~device:parent.device ~version:parent.version in
  let steps = ref parent.steps in
  (* Oversized parents contribute a window, not the whole transcript. *)
  if Array.length !steps > max_steps then begin
    let start = Prng.int rng (Array.length !steps - max_steps + 1) in
    steps := Array.sub !steps start max_steps
  end;
  let rounds = 1 + Prng.int rng 4 in
  for _ = 1 to rounds do
    steps := one_mutation rng s ~pool !steps
  done;
  if Array.length !steps > max_steps then steps := Array.sub !steps 0 max_steps;
  { parent with origin = Input.Mutant; steps = !steps }
