module Prng = Sedspec_util.Prng

(* splitmix64's finaliser: a stateless 64-bit mix, so the corruption
   pattern is a pure function of (address, mask). *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L
  in
  Int64.logxor z (Int64.shift_right_logical z 33)

let corrupt_byte ~mask addr b =
  let h = mix64 (Int64.logxor addr mask) in
  if Int64.logand h 0x7L = 0L then
    b lxor (Int64.to_int (Int64.logand (Int64.shift_right_logical h 8) 0xFFL) lor 1)
  else b

(* Response-value corruption: a pure function of (value, mask), firing on
   a deterministic ~1/4 of values with a nonzero derived XOR — replayable
   and identical wherever the same value flows. *)
let corrupt_value ~mask v =
  let h = mix64 (Int64.logxor v mask) in
  if Int64.logand h 0x3L = 0L then
    Int64.logxor v
      (Int64.logor (Int64.logand (Int64.shift_right_logical h 8) 0xFFFFL) 1L)
  else v

let dma_len_delta ~delta len = max 0 (len + delta)

let unsigned_ge a b = Int64.unsigned_compare a b >= 0

let short_byte ~limit addr b = if unsigned_ge addr limit then 0 else b

let burn n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

type armed = {
  machine : Vmm.Machine.t;
  checker : Sedspec.Checker.t;
  guard : Guard.Validator.t option;
  mutable fired : int;
  mutable undo : (unit -> unit) list;
}

let fired a = a.fired

(* Arm a response-fault record on every device interp of the machine
   (corruptions of the host->guest channel are a property of the device
   model, not of one checker). *)
let arm_response a rf =
  List.iter
    (fun name ->
      let it = Vmm.Machine.interp_of a.machine name in
      Interp.set_response_fault it (Some rf);
      a.undo <- (fun () -> Interp.set_response_fault it None) :: a.undo)
    (Vmm.Machine.device_names a.machine)

let arm ?guard (plan : Plan.t) machine checker =
  let a = { machine; checker; guard; fired = 0; undo = [] } in
  (match plan.site with
  | Plan.Guest_corrupt { mask } ->
    Vmm.Guest_mem.set_read_fault (Vmm.Machine.ram machine)
      (Some
         (fun addr b ->
           let b' = corrupt_byte ~mask addr b in
           if b' <> b then a.fired <- a.fired + 1;
           b'))
  | Plan.Guest_short { limit } ->
    Vmm.Guest_mem.set_read_fault (Vmm.Machine.ram machine)
      (Some
         (fun addr b ->
           let b' = short_byte ~limit addr b in
           if b' <> b then a.fired <- a.fired + 1;
           b'))
  | Plan.Spec_bit_flip _ | Plan.Spec_truncate -> ()
  | Plan.Walk_raise { at_walk } ->
    let n = ref 0 in
    Sedspec.Checker.set_fault_hook checker
      (Some
         (fun () ->
           let k = !n in
           incr n;
           if k = at_walk then begin
             a.fired <- a.fired + 1;
             raise (Plan.Injected "synthetic checker fault")
           end))
  | Plan.Walk_delay { at_walk; spin } ->
    let n = ref 0 in
    Sedspec.Checker.set_fault_hook checker
      (Some
         (fun () ->
           let k = !n in
           incr n;
           if k = at_walk then begin
             a.fired <- a.fired + 1;
             burn spin
           end))
  | Plan.Resp_read_corrupt { mask } ->
    arm_response a
      {
        Interp.no_response_fault with
        Interp.rf_read =
          Some
            (fun v ->
              let v' = corrupt_value ~mask v in
              if v' <> v then a.fired <- a.fired + 1;
              v');
      }
  | Plan.Resp_dma_len { delta } ->
    arm_response a
      {
        Interp.no_response_fault with
        Interp.rf_dma_len =
          Some
            (fun len ->
              let len' = dma_len_delta ~delta len in
              if len' <> len then a.fired <- a.fired + 1;
              len');
      }
  | Plan.Resp_store_corrupt { mask } ->
    arm_response a
      {
        Interp.no_response_fault with
        Interp.rf_store =
          Some
            (fun v ->
              let v' = corrupt_value ~mask v in
              if v' <> v then a.fired <- a.fired + 1;
              v');
      }
  | Plan.Resp_irq_storm { burst } ->
    (* The burst is applied inside the interp; count the raise edges the
       guest actually sees while the storm is armed (each legitimate
       raise is amplified by [burst] injected edges). *)
    List.iter
      (fun name ->
        let it = Vmm.Machine.interp_of machine name in
        Interp.set_response_fault it
          (Some { Interp.no_response_fault with Interp.rf_irq_burst = burst });
        let remove_hooks =
          Interp.add_hooks it
            {
              Interp.silent_hooks with
              Interp.on_irq = (fun up -> if up then a.fired <- a.fired + 1);
            }
        in
        a.undo <-
          (fun () ->
            Interp.set_response_fault it None;
            remove_hooks ())
          :: a.undo)
      (Vmm.Machine.device_names machine)
  | Plan.Guard_raise { at_check } -> (
    match guard with
    | None -> ()
    | Some g ->
      let n = ref 0 in
      Guard.Validator.set_fault_hook g
        (Some
           (fun () ->
             let k = !n in
             incr n;
             if k = at_check then begin
               a.fired <- a.fired + 1;
               raise (Plan.Injected "synthetic guard fault")
             end));
      a.undo <- (fun () -> Guard.Validator.set_fault_hook g None) :: a.undo));
  a

let disarm a =
  Vmm.Guest_mem.set_read_fault (Vmm.Machine.ram a.machine) None;
  Sedspec.Checker.set_fault_hook a.checker None;
  List.iter (fun f -> f ()) a.undo;
  a.undo <- []

let corrupt_spec rng (site : Plan.site) text =
  match site with
  | Plan.Spec_bit_flip { flips } ->
    let b = Bytes.of_string text in
    for _ = 1 to flips do
      let i = Prng.int rng (Bytes.length b) in
      let bit = 1 lsl Prng.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit land 0xFF))
    done;
    Bytes.to_string b
  | Plan.Spec_truncate -> String.sub text 0 (Prng.int rng (String.length text))
  | _ -> invalid_arg "Inject.corrupt_spec: not a spec-site plan"
